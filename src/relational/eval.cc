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

Value ResolveTerm(const Term& t, const Binding& binding) {
  if (!t.is_var()) return t.constant;
  auto it = binding.find(t.var);
  return it->second;
}

struct EvalContext {
  const ReadView* db;
  const ConjunctiveQuery* query;
  std::vector<const Atom*> order;
  // builtins_at[i] = builtins that become checkable right after atom order[i].
  std::vector<std::vector<const Builtin*>> builtins_at;
  std::vector<Binding> results;
};

void Backtrack(EvalContext* ctx, size_t depth, Binding* binding) {
  if (depth == ctx->order.size()) {
    ctx->results.push_back(*binding);
    return;
  }
  const Atom& atom = *ctx->order[depth];
  const LogView rel = ctx->db->View(atom.relation);
  if (!rel) return;  // Missing relation: empty answer.

  auto try_tuple = [&](const Tuple& tuple) {
    Binding extended = *binding;
    if (!UnifyAtomWithTuple(atom, tuple, &extended)) return;
    for (const Builtin* b : ctx->builtins_at[depth]) {
      if (!EvalBuiltin(b->op, ResolveTerm(b->lhs, extended),
                       ResolveTerm(b->rhs, extended))) {
        return;
      }
    }
    Backtrack(ctx, depth + 1, &extended);
  };

  // Index lookup on the first position whose term is already a known value;
  // fall back to a full scan when every position is free.
  int indexed_pos = -1;
  Value key;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (!t.is_var()) {
      indexed_pos = static_cast<int>(i);
      key = t.constant;
      break;
    }
    auto it = binding->find(t.var);
    if (it != binding->end()) {
      indexed_pos = static_cast<int>(i);
      key = it->second;
      break;
    }
  }
  // An arity-mismatched atom has no column index to use; it falls through to
  // the scan, where unification rejects every tuple anyway.
  if (indexed_pos >= 0 && static_cast<size_t>(indexed_pos) < rel.arity()) {
    const size_t column = static_cast<size_t>(indexed_pos);
    for (size_t e = rel.First(column, key); e != TupleLog::kNone;
         e = rel.Next(column, e)) {
      try_tuple(rel.at(e));
    }
  } else {
    for (size_t e = 0; e < rel.size(); ++e) try_tuple(rel.at(e));
  }
}

// Evaluates `query` with `skip_atom` removed (SIZE_MAX = none) and an
// optional seed binding whose variables count as already bound.
Result<std::vector<Binding>> EvaluateSeeded(const ReadView& db,
                                            const ConjunctiveQuery& query,
                                            size_t skip_atom,
                                            const Binding* seed) {
  EvalContext ctx;
  ctx.db = &db;
  ctx.query = &query;

  // Greedy ordering: repeatedly pick the atom with the most bound positions.
  std::vector<const Atom*> pending;
  pending.reserve(query.atoms.size());
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    if (i != skip_atom) pending.push_back(&query.atoms[i]);
  }
  std::set<std::string> bound;
  if (seed != nullptr) {
    for (const auto& [name, value] : *seed) bound.insert(name);
  }
  std::vector<const Builtin*> pending_builtins;
  for (const Builtin& b : query.builtins) pending_builtins.push_back(&b);
  // Builtins already decidable from the seed alone are checked up front.
  std::vector<const Builtin*> immediate;
  {
    auto it = pending_builtins.begin();
    while (it != pending_builtins.end()) {
      if (BuiltinReady(**it, bound)) {
        immediate.push_back(*it);
        it = pending_builtins.erase(it);
      } else {
        ++it;
      }
    }
  }

  while (!pending.empty()) {
    auto best = std::max_element(
        pending.begin(), pending.end(), [&](const Atom* a, const Atom* b) {
          return BoundScore(*a, bound) < BoundScore(*b, bound);
        });
    const Atom* chosen = *best;
    pending.erase(best);
    ctx.order.push_back(chosen);
    for (const std::string& v : chosen->Variables()) bound.insert(v);
    // Attach builtins that just became fully bound.
    std::vector<const Builtin*> now;
    auto it = pending_builtins.begin();
    while (it != pending_builtins.end()) {
      if (BuiltinReady(**it, bound)) {
        now.push_back(*it);
        it = pending_builtins.erase(it);
      } else {
        ++it;
      }
    }
    ctx.builtins_at.push_back(std::move(now));
  }
  if (!pending_builtins.empty()) {
    return Status::Unsupported("built-in over unbound variables: " +
                               pending_builtins.front()->ToString());
  }

  // Check seed-decidable builtins before any scanning.
  Binding binding = seed != nullptr ? *seed : Binding{};
  auto resolve = [&](const Term& t) {
    return t.is_var() ? binding.at(t.var) : t.constant;
  };
  for (const Builtin* b : immediate) {
    if (!EvalBuiltin(b->op, resolve(b->lhs), resolve(b->rhs))) {
      return ctx.results;  // Seed contradicts a builtin: empty.
    }
  }

  if (ctx.order.empty()) {
    ctx.results.push_back(binding);
    return ctx.results;
  }
  Backtrack(&ctx, 0, &binding);
  return ctx.results;
}

Result<std::vector<Binding>> EvaluateImpl(const ReadView& db,
                                          const ConjunctiveQuery& query) {
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  return EvaluateSeeded(db, query, /*skip_atom=*/SIZE_MAX, /*seed=*/nullptr);
}

}  // namespace

bool UnifyAtomWithTuple(const Atom& atom, const Tuple& tuple,
                        Binding* binding) {
  if (atom.terms.size() != tuple.arity()) return false;
  // Record variables newly bound here so we can roll back on failure.
  std::vector<std::string> added;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value& v = tuple.at(i);
    if (!t.is_var()) {
      if (!(t.constant == v)) {
        for (const auto& name : added) binding->erase(name);
        return false;
      }
      continue;
    }
    auto it = binding->find(t.var);
    if (it == binding->end()) {
      binding->emplace(t.var, v);
      added.push_back(t.var);
    } else if (!(it->second == v)) {
      for (const auto& name : added) binding->erase(name);
      return false;
    }
  }
  return true;
}

Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query) {
  auto bindings = EvaluateImpl(db, query);
  if (!bindings.ok()) return bindings.status();
  std::set<Tuple> out;
  for (const Binding& b : *bindings) {
    std::vector<Value> row;
    row.reserve(query.head_vars.size());
    for (const std::string& v : query.head_vars) {
      row.push_back(b.at(v));
    }
    out.insert(Tuple(std::move(row)));
  }
  return out;
}

Result<std::vector<Binding>> EvaluateBindings(const ReadView& db,
                                              const ConjunctiveQuery& query) {
  return EvaluateImpl(db, query);
}

Result<std::set<Tuple>> EvaluateQueryDelta(const ReadView& db,
                                           const ConjunctiveQuery& query,
                                           size_t delta_atom,
                                           const std::set<Tuple>& delta) {
  if (delta_atom >= query.atoms.size()) {
    return Status::InvalidArgument("delta_atom out of range");
  }
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  std::set<Tuple> out;
  const Atom& atom = query.atoms[delta_atom];
  for (const Tuple& t : delta) {
    Binding seed;
    if (!UnifyAtomWithTuple(atom, t, &seed)) continue;
    auto bindings = EvaluateSeeded(db, query, delta_atom, &seed);
    if (!bindings.ok()) return bindings.status();
    for (const Binding& b : *bindings) {
      std::vector<Value> row;
      row.reserve(query.head_vars.size());
      bool complete = true;
      for (const std::string& v : query.head_vars) {
        auto it = b.find(v);
        if (it == b.end()) {
          complete = false;
          break;
        }
        row.push_back(it->second);
      }
      if (complete) out.insert(Tuple(std::move(row)));
    }
  }
  return out;
}

}  // namespace p2pdb::rel
