#include "src/relational/eval.h"

#include <algorithm>

namespace p2pdb::rel {

Result<QueryPlan> QueryPlan::Compile(const ConjunctiveQuery& query,
                                     const ReadView& view, size_t seed_atom,
                                     const std::vector<std::string>& bound) {
  if (seed_atom != kNoSeed && seed_atom >= query.atoms.size()) {
    return Status::InvalidArgument("seed atom out of range");
  }
  P2PDB_RETURN_IF_ERROR(query.CheckSafe());
  QueryPlan plan;
  // Queries are small: a linear search over the slots beats hashing, which
  // matters to ad-hoc reads that compile per call.
  auto slot_of = [&](const std::string& var) {
    return static_cast<uint32_t>(
        std::find(plan.slots_.begin(), plan.slots_.end(), var) -
        plan.slots_.begin());
  };
  auto add_slot = [&](const std::string& var) {
    if (slot_of(var) == plan.slots_.size()) plan.slots_.push_back(var);
  };
  for (const std::string& v : bound) add_slot(v);
  for (const Atom& a : query.atoms) {
    for (const Term& t : a.terms) {
      if (t.is_var()) add_slot(t.var);
    }
  }
  std::vector<bool> is_bound(plan.slots_.size(), false);
  for (size_t i = 0; i < bound.size(); ++i) is_bound[i] = true;

  auto add_constant = [&](const Value& v) {
    plan.constants_.push_back(v);
    return static_cast<uint32_t>(plan.constants_.size() - 1);
  };
  // Compiles one atom against the slots bound so far, then marks its
  // variables bound. A variable's first occurrence in an unbound position
  // binds it; any later occurrence, in this atom or after, checks it.
  auto compile_atom = [&](const Atom& atom) {
    Step step;
    step.relation = view.Find(atom.relation);
    if (step.relation == kNoRelation ||
        view.Arity(step.relation) != atom.terms.size()) {
      plan.unsatisfiable_ = true;
    }
    std::vector<uint32_t> fresh;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      Position p;
      bool key = false;
      if (!t.is_var()) {
        p = {Position::Op::kConst, add_constant(t.constant)};
        key = true;
      } else {
        const uint32_t slot = slot_of(t.var);
        if (is_bound[slot]) {
          p = {Position::Op::kCheck, slot};
          key = true;
        } else if (std::find(fresh.begin(), fresh.end(), slot) !=
                   fresh.end()) {
          p = {Position::Op::kCheck, slot};
        } else {
          p = {Position::Op::kBind, slot};
          fresh.push_back(slot);
        }
      }
      if (key && step.lookup == kScan) step.lookup = i;
      step.positions.push_back(p);
    }
    for (uint32_t slot : fresh) is_bound[slot] = true;
    return step;
  };
  auto operand = [&](const Term& t) {
    return t.is_var() ? Operand{false, slot_of(t.var)}
                      : Operand{true, add_constant(t.constant)};
  };
  // Moves the built-ins of `unplaced` that the bound slots decide to
  // `*ready`, keeping their order.
  std::vector<const Builtin*> unplaced;
  for (const Builtin& b : query.builtins) unplaced.push_back(&b);
  auto place_ready = [&](std::vector<CompiledBuiltin>* ready) {
    auto decided = [&](const Term& t) {
      return !t.is_var() || is_bound[slot_of(t.var)];
    };
    auto it = unplaced.begin();
    while (it != unplaced.end()) {
      const Builtin& b = **it;
      if (decided(b.lhs) && decided(b.rhs)) {
        ready->push_back({b.op, operand(b.lhs), operand(b.rhs)});
        it = unplaced.erase(it);
      } else {
        ++it;
      }
    }
  };

  std::vector<const Atom*> pending;
  for (size_t i = 0; i < query.atoms.size(); ++i) {
    if (i == seed_atom) {
      plan.seed_ = compile_atom(query.atoms[i]);
    } else {
      pending.push_back(&query.atoms[i]);
    }
  }
  place_ready(&plan.immediate_);
  auto score = [&](const Atom& atom) {
    size_t n = 0;
    for (const Term& t : atom.terms) {
      if (!t.is_var() || is_bound[slot_of(t.var)]) ++n;
    }
    return n;
  };
  while (!pending.empty()) {
    auto best = pending.begin();
    size_t best_score = score(**best);
    for (auto it = pending.begin() + 1; it != pending.end(); ++it) {
      const size_t s = score(**it);
      if (s > best_score) {
        best = it;
        best_score = s;
      }
    }
    plan.steps_.push_back(compile_atom(**best));
    pending.erase(best);
    place_ready(&plan.steps_.back().builtins);
  }
  for (const std::string& v : query.head_vars) {
    plan.head_.push_back(slot_of(v));
  }
  return plan;
}

std::vector<size_t> QueryPlan::LookupColumns(RelationId relation) const {
  std::vector<size_t> columns;
  for (const Step& step : steps_) {
    if (step.relation == relation && step.lookup != kScan) {
      columns.push_back(step.lookup);
    }
  }
  return columns;
}

Row QueryPlan::Project(const std::vector<Value>& binding,
                       std::vector<Value>* scratch) const {
  scratch->resize(head_.size());
  for (size_t i = 0; i < head_.size(); ++i) (*scratch)[i] = binding[head_[i]];
  return Row(scratch->data(), scratch->size());
}

bool QueryPlan::Match(const Step& step, Row row,
                      std::vector<Value>* binding) const {
  for (size_t i = 0; i < step.positions.size(); ++i) {
    const Position p = step.positions[i];
    const Value& v = row.at(i);
    switch (p.op) {
      case Position::Op::kBind:
        (*binding)[p.index] = v;
        break;
      case Position::Op::kCheck:
        if ((*binding)[p.index] != v) return false;
        break;
      case Position::Op::kConst:
        if (constants_[p.index] != v) return false;
        break;
    }
  }
  return true;
}

bool QueryPlan::Holds(const std::vector<CompiledBuiltin>& builtins,
                      const std::vector<Value>& binding) const {
  for (const CompiledBuiltin& b : builtins) {
    if (!EvalBuiltin(b.op, Resolve(b.lhs, binding), Resolve(b.rhs, binding))) {
      return false;
    }
  }
  return true;
}

bool QueryPlan::Search(const ReadView& db, size_t depth,
                       std::vector<Value>* binding,
                       const BindingSink& emit) const {
  if (depth == steps_.size()) return emit(*binding);
  const Step& step = steps_[depth];
  const LogView view = db.View(step.relation);
  auto visit = [&](size_t entry) {
    if (!Match(step, view.at(entry), binding)) return true;
    if (!Holds(step.builtins, *binding)) return true;
    return Search(db, depth + 1, binding, emit);
  };
  if (step.lookup == kScan) {
    for (size_t e = 0; e < view.size(); ++e) {
      if (!visit(e)) return false;
    }
    return true;
  }
  // The key's slot was bound before this step, so deeper steps never
  // rewrite it while the chain is walked.
  const Position key = step.positions[step.lookup];
  const Value& value = key.op == Position::Op::kConst ? constants_[key.index]
                                                      : (*binding)[key.index];
  for (size_t e = view.First(step.lookup, value); e != TupleLog::kNone;
       e = view.Next(step.lookup, e)) {
    if (!visit(e)) return false;
  }
  return true;
}

bool QueryPlan::Run(const ReadView& db, std::vector<Value>* binding,
                    const BindingSink& emit) const {
  binding->resize(slots_.size());
  if (unsatisfiable_ || !Holds(immediate_, *binding)) return true;
  return Search(db, 0, binding, emit);
}

bool QueryPlan::SearchFrom(Row row, const ReadView& db,
                           std::vector<Value>* binding,
                           const BindingSink& emit) const {
  if (!Match(seed_, row, binding)) return true;
  if (!Holds(immediate_, *binding)) return true;
  return Search(db, 0, binding, emit);
}

bool QueryPlan::RunSeeded(const ReadView& db, size_t from,
                          std::vector<Value>* binding,
                          const BindingSink& emit) const {
  binding->resize(slots_.size());
  if (unsatisfiable_) return true;
  const LogView seed = db.View(seed_.relation);
  for (size_t e = from; e < seed.size(); ++e) {
    if (!SearchFrom(seed.at(e), db, binding, emit)) return false;
  }
  return true;
}

bool QueryPlan::RunSeeded(const ReadView& db, const RowList& rows,
                          size_t from, std::vector<Value>* binding,
                          const BindingSink& emit) const {
  binding->resize(slots_.size());
  if (unsatisfiable_) return true;
  for (size_t i = from; i < rows.size(); ++i) {
    const Row row = rows[i];
    if (row.arity() != seed_.positions.size()) continue;
    if (!SearchFrom(row, db, binding, emit)) return false;
  }
  return true;
}

Result<std::set<Tuple>> EvaluateQuery(const ReadView& db,
                                      const ConjunctiveQuery& query) {
  auto plan = QueryPlan::Compile(query, db);
  if (!plan.ok()) return plan.status();
  std::set<Tuple> out;
  std::vector<Value> binding;
  std::vector<Value> row;
  plan->Run(db, &binding, [&](const std::vector<Value>& b) {
    out.emplace(plan->Project(b, &row));
    return true;
  });
  return out;
}

}  // namespace p2pdb::rel
