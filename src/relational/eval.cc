#include "src/relational/eval.h"

#include <algorithm>

namespace p2pdb::rel {

namespace {

// Counts how many variables of `atom` are bound under `binding`; constants
// count as bound positions too. Used for greedy join ordering.
size_t BoundScore(const Atom& atom, const std::set<std::string>& bound) {
  size_t score = 0;
  for (const Term& t : atom.terms) {
    if (!t.is_var() || bound.count(t.var)) ++score;
  }
  return score;
}

// Returns builtins whose variables are all bound.
bool BuiltinReady(const Builtin& b, const std::set<std::string>& bound) {
  for (const Term* t : {&b.lhs, &b.rhs}) {
    if (t->is_var() && !bound.count(t->var)) return false;
  }
  return true;
}

// Moves the built-ins of `*unplaced` that `bound` decides to `*ready`,
// keeping their order.
void PlaceReady(const std::set<std::string>& bound,
                std::vector<const Builtin*>* unplaced,
                std::vector<const Builtin*>* ready) {
  auto it = unplaced->begin();
  while (it != unplaced->end()) {
    if (BuiltinReady(**it, bound)) {
      ready->push_back(*it);
      it = unplaced->erase(it);
    } else {
      ++it;
    }
  }
}

const Value& ResolveTerm(const Term& t, const Binding& binding) {
  if (!t.is_var()) return t.constant;
  return binding.find(t.var)->second;
}

bool BuiltinsHold(const std::vector<const Builtin*>& builtins,
                  const Binding& binding) {
  for (const Builtin* b : builtins) {
    if (!EvalBuiltin(b->op, ResolveTerm(b->lhs, binding),
                     ResolveTerm(b->rhs, binding))) {
      return false;
    }
  }
  return true;
}

// How to finish a query once a seed binding is fixed: the remaining atoms in
// greedy join order, each with its relation already resolved against the
// view, and every built-in placed where it first becomes decidable. Built
// once per call and shared by every seed, which is what makes a delta range
// cost one plan instead of one per entry.
struct Plan {
  std::vector<const Atom*> order;
  std::vector<LogView> views;  // views[i]: order[i]'s relation.
  // builtins_at[i] = builtins that become checkable right after atom order[i].
  std::vector<std::vector<const Builtin*>> builtins_at;
  // Built-ins decidable from the seed alone, checked before any scan.
  std::vector<const Builtin*> immediate;
};

// Plans `query` over `db` with atom `seed_atom` (SIZE_MAX = none) already
// matched by the seed: its variables count as bound, and it is left out of
// the join order.
Result<Plan> MakePlan(const ReadView& db, const ConjunctiveQuery& query,
                      size_t seed_atom) {
  Plan plan;
  std::set<std::string> bound;
  std::vector<const Atom*> pending;
  pending.reserve(query.atoms.size());
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    if (i == seed_atom) {
      for (const std::string& v : query.atoms[i].Variables()) bound.insert(v);
    } else {
      pending.push_back(&query.atoms[i]);
    }
  }
  std::vector<const Builtin*> unplaced;
  for (const Builtin& b : query.builtins) unplaced.push_back(&b);
  PlaceReady(bound, &unplaced, &plan.immediate);

  // Greedy ordering: repeatedly pick the atom with the most bound positions.
  while (!pending.empty()) {
    auto best = std::max_element(
        pending.begin(), pending.end(), [&](const Atom* a, const Atom* b) {
          return BoundScore(*a, bound) < BoundScore(*b, bound);
        });
    const Atom* chosen = *best;
    pending.erase(best);
    plan.order.push_back(chosen);
    plan.views.push_back(db.View(chosen->relation));
    for (const std::string& v : chosen->Variables()) bound.insert(v);
    plan.builtins_at.emplace_back();
    PlaceReady(bound, &unplaced, &plan.builtins_at.back());
  }
  if (!unplaced.empty()) {
    return Status::Unsupported("built-in over unbound variables: " +
                               unplaced.front()->ToString());
  }
  return plan;
}

// Extends `*binding` through atoms order[depth..], appending each complete
// binding to `results`. A complete binding is moved out of `*binding`.
void Backtrack(const Plan& plan, size_t depth, Binding* binding,
               std::vector<Binding>* results) {
  if (depth == plan.order.size()) {
    results->push_back(std::move(*binding));
    return;
  }
  const Atom& atom = *plan.order[depth];
  const LogView& rel = plan.views[depth];
  if (!rel) return;  // Missing relation: empty answer.

  auto try_tuple = [&](const Tuple& tuple) {
    Binding extended = *binding;
    if (!UnifyAtomWithTuple(atom, tuple, &extended)) return;
    if (!BuiltinsHold(plan.builtins_at[depth], extended)) return;
    Backtrack(plan, depth + 1, &extended, results);
  };

  // Index lookup on the first position whose term is already a known value;
  // fall back to a full scan when every position is free.
  int indexed_pos = -1;
  const Value* key = nullptr;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      indexed_pos = static_cast<int>(i);
      key = &t.constant;
      break;
    }
    auto it = binding->find(t.var);
    if (it != binding->end()) {
      indexed_pos = static_cast<int>(i);
      key = &it->second;
      break;
    }
  }
  // An arity-mismatched atom has no column index to use; it falls through to
  // the scan, where unification rejects every tuple anyway.
  if (indexed_pos >= 0 && static_cast<size_t>(indexed_pos) < rel.arity()) {
    const size_t column = static_cast<size_t>(indexed_pos);
    for (size_t e = rel.First(column, *key); e != TupleLog::kNone;
         e = rel.Next(column, e)) {
      try_tuple(rel.at(e));
    }
  } else {
    for (size_t e = 0; e < rel.size(); ++e) try_tuple(rel.at(e));
  }
}

// Evaluates `plan` from `seed`, appending every answer binding to `results`.
void Run(const Plan& plan, Binding seed, std::vector<Binding>* results) {
  if (!BuiltinsHold(plan.immediate, seed)) return;  // Seed contradicts one.
  Backtrack(plan, 0, &seed, results);
}

Tuple Project(const Binding& binding, const std::vector<std::string>& vars) {
  std::vector<Value> row;
  row.reserve(vars.size());
  for (const std::string& v : vars) row.push_back(binding.at(v));
  return Tuple(std::move(row));
}

}  // namespace

bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple,
                        Binding* binding) {
  if (atom.terms.size() != tuple.arity()) return false;
  // Record variables newly bound here so we can roll back on failure.
  std::vector<const std::string*> added;
  auto roll_back = [&] {
    for (const std::string* name : added) binding->erase(*name);
    return false;
  };
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value& v = tuple.at(i);
    if (!t.is_var()) {
      if (!(t.constant == v)) return roll_back();
      continue;
    }
    auto it = binding->find(t.var);
    if (it == binding->end()) {
      binding->emplace(t.var, v);
      added.push_back(&t.var);
    } else if (!(it->second == v)) {
      return roll_back();
    }
  }
  return true;
}

Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query) {
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  auto plan = MakePlan(db, query, /*seed_atom=*/SIZE_MAX);
  if (!plan.ok()) return plan.status();
  std::vector<Binding> results;
  Run(*plan, Binding{}, &results);
  return results;
}

Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query) {
  auto bindings = EvaluateBindings(db, query);
  if (!bindings.ok()) return bindings.status();
  std::set<Tuple> out;
  for (const Binding& b : *bindings) out.insert(Project(b, query.head_vars));
  return out;
}

Result<std::vector<Binding>> EvaluateBindingsDelta(
    const ReadView& db, const ConjunctiveQuery& query, size_t delta_atom,
    LogView delta, size_t from) {
  if (delta_atom >= query.atoms.size()) {
    return Status::InvalidArgument("delta_atom out of range");
  }
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  auto plan = MakePlan(db, query, delta_atom);
  if (!plan.ok()) return plan.status();
  const Atom& atom = query.atoms[delta_atom];
  std::vector<Binding> results;
  for (size_t e = from; e < delta.size(); ++e) {
    Binding seed;
    if (UnifyAtomWithTuple(atom, delta.at(e), &seed)) {
      Run(*plan, std::move(seed), &results);
    }
  }
  return results;
}

Result<std::vector<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                              const ConjunctiveQuery& query,
                                              size_t delta_atom, LogView delta,
                                              size_t from) {
  auto bindings = EvaluateBindingsDelta(db, query, delta_atom, delta, from);
  if (!bindings.ok()) return bindings.status();
  std::vector<Tuple> out;
  out.reserve(bindings->size());
  for (const Binding& b : *bindings) out.push_back(Project(b, query.head_vars));
  return out;
}

}  // namespace p2pdb::rel
