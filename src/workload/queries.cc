#include "src/workload/queries.h"

namespace p2pdb::workload {

namespace {

/// A relation with data at some node — the population reads are drawn from.
/// Its tuples are kept sorted, so the k-th pick does not depend on the order
/// they were inserted in.
struct ReadTarget {
  NodeId node;
  const rel::Relation* relation;
  std::string name;
  std::vector<rel::Tuple> sorted;
};

const rel::Tuple& PickTuple(const ReadTarget& target, Rng* rng) {
  return target.sorted[rng->NextBelow(target.sorted.size())];
}

/// Single-atom selection: R(c, X1, ..., Xk-1) projected onto all variables,
/// with c drawn from a real tuple so the answer is non-empty.
rel::ConjunctiveQuery MakeSelection(const ReadTarget& target, Rng* rng) {
  const rel::Tuple& sample = PickTuple(target, rng);
  rel::ConjunctiveQuery cq;
  rel::Atom atom;
  atom.relation = target.name;
  atom.terms.push_back(rel::Term::Const(sample.at(0)));
  for (size_t i = 1; i < sample.arity(); ++i) {
    std::string var = "X" + std::to_string(i);
    atom.terms.push_back(rel::Term::Var(var));
    cq.head_vars.push_back(var);
  }
  if (cq.head_vars.empty()) {
    // Arity-1 relation: project the (constant-matched) single column through
    // a variable instead, so the query stays safe and non-boolean.
    atom.terms[0] = rel::Term::Var("X0");
    cq.head_vars.push_back("X0");
  }
  cq.atoms.push_back(std::move(atom));
  return cq;
}

/// Selective self-join: R(c, X1, .., Xk-1) ⋈ R(Y0, .., Xj, .., Yk-1) on
/// column j — "other tuples agreeing with this one on column j" (e.g. same
/// author, same year), answered via the column index on the snapshot.
rel::ConjunctiveQuery MakeJoin(const ReadTarget& target, Rng* rng) {
  const rel::Tuple& sample = PickTuple(target, rng);
  size_t arity = sample.arity();
  size_t j = 1 + rng->NextBelow(arity - 1);
  rel::ConjunctiveQuery cq;
  rel::Atom left;
  left.relation = target.name;
  left.terms.push_back(rel::Term::Const(sample.at(0)));
  for (size_t i = 1; i < arity; ++i) {
    left.terms.push_back(rel::Term::Var("X" + std::to_string(i)));
  }
  rel::Atom right;
  right.relation = target.name;
  for (size_t i = 0; i < arity; ++i) {
    right.terms.push_back(i == j ? rel::Term::Var("X" + std::to_string(j))
                                 : rel::Term::Var("Y" + std::to_string(i)));
  }
  cq.head_vars = {"X" + std::to_string(j), "Y0"};
  cq.atoms.push_back(std::move(left));
  cq.atoms.push_back(std::move(right));
  return cq;
}

}  // namespace

Result<std::vector<QueryOp>> BuildQueryWorkload(
    const core::P2PSystem& system, const QueryWorkloadOptions& options) {
  std::vector<ReadTarget> targets;
  for (const core::NodeInfo& info : system.nodes()) {
    for (const rel::Relation& relation : info.db.relations()) {
      if (!relation.empty()) {
        targets.push_back(
            {info.id, &relation, relation.name(), relation.SortedTuples()});
      }
    }
  }
  if (targets.empty()) {
    return Status::InvalidArgument(
        "query workload needs at least one non-empty relation");
  }

  Rng rng(options.seed);
  std::vector<QueryOp> ops;
  ops.reserve(options.ops);
  for (size_t i = 0; i < options.ops; ++i) {
    const ReadTarget& target = targets[rng.NextBelow(targets.size())];
    QueryOp op;
    op.node = target.node;
    op.relation = target.name;
    if (rng.NextBool(options.point_fraction)) {
      op.is_point = true;
      op.key = PickTuple(target, &rng);
      if (rng.NextBool(options.miss_fraction)) {
        // Deliberate miss: no generator string ever starts with "~miss:", and
        // the chase only moves existing values around, so this key can never
        // appear — not even after updates propagate.
        (*op.key.mutable_values())[0] =
            rel::Value::Str("~miss:" + std::to_string(i));
        op.expect_hit = false;
      } else {
        op.expect_hit = true;
      }
    } else if (target.relation->schema().arity() >= 2 && rng.NextBool(0.5)) {
      op.cq = MakeJoin(target, &rng);
    } else {
      op.cq = MakeSelection(target, &rng);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace p2pdb::workload
