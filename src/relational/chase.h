// Chase-style application of rule heads (algorithm A6, UpdateLocalData):
// given a binding computed from a rule body, insert the head atoms into the
// local database, inventing fresh labeled nulls for existential variables.
//
// A head is compiled once (RuleHead) against the slots of the bindings it
// will receive (QueryPlan::slots()) and the database it inserts into, so
// applying it reads values by index: the existential variables, their
// minting order, the instantiation and relation id of each atom and the
// homomorphism probe are all fixed at compile time.
#ifndef P2PDB_RELATIONAL_CHASE_H_
#define P2PDB_RELATIONAL_CHASE_H_

#include <string>
#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/relational/eval.h"
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

/// The largest max_null_depth head application accepts. NullFactory keeps a
/// null's depth in 8 bits and saturates at 255, so a larger bound could never
/// stop a runaway chase.
inline constexpr uint32_t kMaxNullDepthLimit = 256;

struct ChaseOptions {
  ChasePolicy policy = ChasePolicy::kProjectionCheck;
  /// Safeguard for rule sets that are not weakly acyclic: no null of depth
  /// >= max_null_depth is ever minted. An application that would mint one
  /// (its binding holds a null of depth max_null_depth - 1 or more) is
  /// skipped and counted in `truncated`. At most kMaxNullDepthLimit.
  uint32_t max_null_depth = 16;
};

struct ChaseStats {
  size_t inserted = 0;   ///< Tuples actually added.
  size_t skipped = 0;    ///< Redundant applications.
  size_t truncated = 0;  ///< Applications suppressed by the depth bound.
};

/// A rule head compiled against the slots of the bindings it is applied to.
/// Head variables that are not binding slots are existential; fresh nulls
/// are minted for them once per application, in order of first appearance
/// across the head atoms, and shared by every atom. Holds scratch space, so
/// one RuleHead serves one thread.
class RuleHead {
 public:
  RuleHead() = default;
  /// `body_slots[i]` names the variable binding slot i holds. Each head atom
  /// is bound to its relation's id in `db`.
  RuleHead(const std::vector<Atom>& head_atoms,
           const std::vector<std::string>& body_slots, const Database& db);

  /// Applies the head under `binding` (one value per body slot) to `db`, the
  /// database it was compiled for or a copy. Inserted tuples are appended
  /// past the database's earlier version rows. Under kHomomorphismCheck the
  /// probe reads the live relations, so it sees what earlier applications
  /// inserted. Fails with InvalidArgument when options.max_null_depth
  /// exceeds kMaxNullDepthLimit, or, inserting nothing, when a head atom
  /// names no relation of its arity in the database compiled for.
  Status Apply(Database* db, const std::vector<Value>& binding,
               NullFactory* nulls, const ChaseOptions& options,
               ChaseStats* stats);

 private:
  /// A head atom position: a frame slot or a constant.
  struct Operand {
    bool is_const = false;
    uint32_t index = 0;
  };
  struct HeadAtom {
    RelationId relation = kNoRelation;
    std::vector<Operand> terms;
    /// First position that is not existential (the projection check's
    /// lookup column), or SIZE_MAX.
    size_t key = SIZE_MAX;
  };

  const Value& ValueOf(Operand operand) const {
    return operand.is_const ? constants_[operand.index] : frame_[operand.index];
  }
  bool IsExistential(Operand operand) const {
    return !operand.is_const && operand.index >= frontier_.size();
  }
  /// The atom's row under the frame, written into row_.
  Row Instantiate(const HeadAtom& atom);
  bool ProjectionPresent(const LogView& relation, const HeadAtom& atom) const;

  std::vector<HeadAtom> atoms_;
  /// Not OK when a head atom did not resolve against the database.
  Status unresolved_;
  std::vector<Value> constants_;
  /// Frame slot i < frontier_.size() holds binding slot frontier_[i]; the
  /// existential variables follow.
  std::vector<uint32_t> frontier_;
  size_t existentials_ = 0;
  /// The head atoms as a query with the frontier pre-bound: a witness is a
  /// homomorphism extending the binding.
  QueryPlan probe_;
  std::vector<Value> frame_;
  std::vector<Value> row_;  // Instantiate()'s scratch.
};

/// One centralized chase step: evaluates `body` over `source` and applies
/// `head_atoms` to `*db` for every binding, in emission order. Every binding
/// is collected before the first application, so `source` may be `*db`.
Status ApplyRule(Database* db, const ReadView& source,
                 const ConjunctiveQuery& body,
                 const std::vector<Atom>& head_atoms, NullFactory* nulls,
                 const ChaseOptions& options, ChaseStats* stats);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_CHASE_H_
