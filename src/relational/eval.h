// Conjunctive query evaluation over any ReadView (a live database or an
// immutable MVCC snapshot).
//
// A query is compiled once into a QueryPlan whose variables are integer
// slots. Evaluation fills one std::vector<Value> in place, slot i holding the
// value of variable slots()[i], and hands each complete binding to a
// callback. Long-lived plans sit with their users: a rule's head node keeps
// one join plan per body part (src/core/update.h), a subscription one plan
// per atom of its query. Ad-hoc reads compile per call (EvaluateQuery).
#ifndef P2PDB_RELATIONAL_EVAL_H_
#define P2PDB_RELATIONAL_EVAL_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Receives each complete binding of a run; returning false stops the run.
using BindingSink = std::function<bool(const std::vector<Value>& binding)>;

/// A conjunctive query compiled into a join plan over integer slots.
///
/// Slots number the variables: first any pre-bound ones (Compile's `bound`),
/// then the rest in order of first appearance in the atoms. Every plan of one
/// query therefore numbers its variables alike, whatever its seed atom.
///
/// A plan binds each atom to a relation id of the ReadView it is compiled
/// for, so a run resolves no name; it runs over any view numbering its
/// relations alike (a live database and its snapshots). An atom whose
/// relation the view lacks, or has at another arity, leaves no answers.
///
/// The join order is greedy: repeatedly the pending atom with the most
/// constant or already-bound positions, the first one on a tie. Each step
/// looks up the column of its first position that holds a constant or a
/// variable bound before the step (a variable repeated within the atom is
/// checked, never looked up), and scans when there is none. Each built-in is
/// checked as soon as its variables are bound. A plan keeps no state between
/// runs.
class QueryPlan {
 public:
  static constexpr size_t kNoSeed = SIZE_MAX;

  QueryPlan() = default;

  /// Compiles `query` for `view`. With `seed_atom` set, that atom is matched
  /// against a range of its relation's log or of given rows (RunSeeded) and
  /// the rest is planned with its variables bound. Runs start with the
  /// variables `bound` already set: they take slots [0, bound.size()) in
  /// that order and count as bound when the join order is planned. Fails
  /// when the query is unsafe (ConjunctiveQuery::CheckSafe) or `seed_atom`
  /// is out of range.
  static Result<QueryPlan> Compile(const ConjunctiveQuery& query,
                                   const ReadView& view,
                                   size_t seed_atom = kNoSeed,
                                   const std::vector<std::string>& bound = {});

  /// The variable each slot holds.
  const std::vector<std::string>& slots() const { return slots_; }
  size_t slot_count() const { return slots_.size(); }

  /// The seed atom's relation; kNoRelation for a plan compiled without one
  /// or whose seed relation the view lacks.
  RelationId seed_relation() const { return seed_.relation; }

  /// The columns of `relation` this plan's steps look up, in step order (the
  /// seed atom is scanned, not looked up). A log read only by compiled plans
  /// needs indexes on these columns alone.
  std::vector<size_t> LookupColumns(RelationId relation) const;

  /// The query's answer row for a complete binding, its head variables,
  /// written into `*scratch`, which the caller reuses from row to row. The
  /// row views `*scratch`.
  Row Project(const std::vector<Value>& binding,
              std::vector<Value>* scratch) const;

  /// Runs a plan compiled without a seed atom over `db`. `*binding` is the
  /// run's scratch, resized to slot_count(); its first slots hold the values
  /// of the pre-bound variables. Each complete binding goes to `emit`, in
  /// backtracking order. Returns false iff `emit` stopped the run.
  bool Run(const ReadView& db, std::vector<Value>* binding,
           const BindingSink& emit) const;

  /// Semi-naive run of a seeded plan: every entry [from, size) of the seed
  /// relation's log in `db` that matches the seed atom starts one search, in
  /// entry order, while the other atoms read `db` whole. When a monotone
  /// update appended exactly those entries to the seed atom's relation, the
  /// union over every atom occurrence of that relation is exactly the
  /// update's new answers. An answer derived twice is emitted twice.
  bool RunSeeded(const ReadView& db, size_t from, std::vector<Value>* binding,
                 const BindingSink& emit) const;

  /// RunSeeded over rows [from, rows.size()) of `rows` instead of a log
  /// range: every row that matches the seed atom starts one search, in row
  /// order, so a row given twice is searched twice. A row of another arity
  /// matches nothing.
  bool RunSeeded(const ReadView& db, const RowList& rows, size_t from,
                 std::vector<Value>* binding, const BindingSink& emit) const;

 private:
  /// What one atom position does against the binding.
  struct Position {
    enum class Op : uint8_t { kBind, kCheck, kConst };
    Op op = Op::kBind;
    uint32_t index = 0;  // Slot (kBind, kCheck) or constant (kConst).
  };
  /// A built-in's side: a slot or a constant.
  struct Operand {
    bool is_const = false;
    uint32_t index = 0;
  };
  struct CompiledBuiltin {
    BuiltinOp op = BuiltinOp::kEq;
    Operand lhs;
    Operand rhs;
  };
  static constexpr size_t kScan = SIZE_MAX;
  struct Step {
    RelationId relation = kNoRelation;
    std::vector<Position> positions;
    /// The column looked up, or kScan. Its position is a constant or a slot
    /// bound before this step.
    size_t lookup = kScan;
    /// Built-ins decidable once this step has matched.
    std::vector<CompiledBuiltin> builtins;
  };

  const Value& Resolve(Operand operand,
                       const std::vector<Value>& binding) const {
    return operand.is_const ? constants_[operand.index]
                            : binding[operand.index];
  }
  /// Matches `row` against `step`, binding its fresh slots in place.
  bool Match(const Step& step, Row row, std::vector<Value>* binding) const;
  bool Holds(const std::vector<CompiledBuiltin>& builtins,
             const std::vector<Value>& binding) const;
  bool Search(const ReadView& db, size_t depth, std::vector<Value>* binding,
              const BindingSink& emit) const;
  /// Starts one seeded search at `row`, which has the seed atom's arity.
  bool SearchFrom(Row row, const ReadView& db, std::vector<Value>* binding,
                  const BindingSink& emit) const;

  std::vector<std::string> slots_;
  std::vector<Value> constants_;
  std::vector<uint32_t> head_;  // The slot of each head variable.
  Step seed_;
  /// Built-ins decidable before the first step.
  std::vector<CompiledBuiltin> immediate_;
  std::vector<Step> steps_;
  /// Some atom's relation is missing from the view compiled for, or has
  /// another arity: every run finds nothing.
  bool unsatisfiable_ = false;
};

/// Compiles `query` for `db` and returns its answers over `db`, projected
/// onto its head variables, as a sorted, duplicate-free set (the ad-hoc read
/// path).
Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_EVAL_H_
