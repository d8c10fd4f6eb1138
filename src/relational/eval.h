// Conjunctive query evaluation over any ReadView (a live database or an
// immutable MVCC snapshot).
#ifndef P2PDB_RELATIONAL_EVAL_H_
#define P2PDB_RELATIONAL_EVAL_H_

#include <set>
#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Evaluates the query body and returns the projection onto head_vars as a
/// sorted, duplicate-free set of tuples (set semantics).
///
/// Strategy: greedy atom reordering (most-bound atom first) with backtracking
/// unification; built-ins are applied as soon as both sides are bound. This is
/// adequate for the paper's workloads (~10^3 tuples per node).
Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query);

/// Like EvaluateQuery but returns the full bindings (one per result), used by
/// the chase when applying rule heads that need body variable values.
Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query);

/// Semi-naive (incremental) evaluation over a log range: the answers of
/// `query` whose atom `delta_atom` (index into query.atoms) matches one of
/// the entries [from, delta.size()) of `delta`. The other atoms read `db`
/// whole. When a monotone update appended exactly those entries to the
/// delta atom's relation, the union over every atom occurrence of that
/// relation is exactly the update's new answers.
///
/// The join order and built-in placement are planned once per call, from the
/// delta atom's variables, and each matching entry seeds one binding; a
/// built-in decidable from the delta atom alone is checked before any scan.
/// Returns the head projection of every answer binding in entry order, not
/// deduplicated: an answer two entries (or two bindings) derive appears
/// twice.
Result<std::vector<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                              const ConjunctiveQuery& query,
                                              size_t delta_atom, LogView delta,
                                              size_t from);

/// EvaluateQueryDelta's bindings, one per answer, before projection: the
/// semi-naive rule join, which needs every body variable.
Result<std::vector<Binding>> EvaluateBindingsDelta(
    const ReadView& db, const ConjunctiveQuery& query, size_t delta_atom,
    LogView delta, size_t from);

/// True if the atom matches the tuple under `binding`, extending it in place.
/// On mismatch the binding is left unchanged.
bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple, Binding* binding);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_EVAL_H_
