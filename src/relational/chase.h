// Chase-style application of rule heads (algorithm A6, UpdateLocalData):
// given a binding computed from a rule body, insert the head atoms into the
// local database, inventing fresh labeled nulls for existential variables.
#ifndef P2PDB_RELATIONAL_CHASE_H_
#define P2PDB_RELATIONAL_CHASE_H_

#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// How to decide whether a head application is redundant.
enum class ChasePolicy {
  /// The paper's A6 check, per head atom: project the atom onto its bound
  /// (non-existential) positions; skip the atom if some existing tuple matches
  /// that projection. Cheap; may under-materialize linked head atoms.
  kProjectionCheck,
  /// Standard restricted-chase check: skip the whole head if the binding
  /// extends to a homomorphism embedding *all* head atoms at once.
  /// More faithful to certain-answer semantics; more expensive.
  kHomomorphismCheck,
};

struct ChaseOptions {
  ChasePolicy policy = ChasePolicy::kProjectionCheck;
  /// Safeguard for rule sets that are not weakly acyclic: a fresh null whose
  /// binding already contains nulls at depth >= max_null_depth is not created
  /// and the application is skipped (counted in `truncated`).
  uint32_t max_null_depth = 16;
};

struct ChaseStats {
  size_t inserted = 0;   ///< Tuples actually added.
  size_t skipped = 0;    ///< Redundant applications.
  size_t truncated = 0;  ///< Applications suppressed by the depth bound.
};

/// Applies one rule head under one binding. `head_atoms` may share existential
/// variables (fresh nulls are minted once per application and reused across
/// the head's atoms). Relations referenced by head atoms must exist in `db`.
/// Inserted tuples are appended to their relations' logs, so a caller that
/// noted the logs' sizes beforehand finds them at entries [size, new size).
Status ApplyRuleHead(Database* db, const std::vector<Atom>& head_atoms,
                     const Binding& binding, NullFactory* nulls,
                     const ChaseOptions& options, ChaseStats* stats);

/// Applies a rule head for every binding in `bindings`. Convenience wrapper.
Status ApplyRuleHeadAll(Database* db, const std::vector<Atom>& head_atoms,
                        const std::vector<Binding>& bindings,
                        NullFactory* nulls, const ChaseOptions& options,
                        ChaseStats* stats);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_CHASE_H_
