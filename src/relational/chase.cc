#include "src/relational/chase.h"

#include <algorithm>

namespace p2pdb::rel {

namespace {

uint32_t MaxNullDepth(const std::vector<Value>& binding) {
  uint32_t depth = 0;
  for (const Value& value : binding) {
    if (value.is_null()) {
      depth = std::max(depth, NullFactory::DepthBitsOf(value.null_id()));
    }
  }
  return depth;
}

}  // namespace

RuleHead::RuleHead(const std::vector<Atom>& head_atoms,
                   const std::vector<std::string>& body_slots,
                   const Database& db) {
  // The frontier: head variables the binding supplies, in order of first
  // appearance.
  std::vector<std::string> frontier;
  for (const Atom& a : head_atoms) {
    for (const Term& t : a.terms) {
      if (!t.is_var() || std::find(frontier.begin(), frontier.end(),
                                   t.var) != frontier.end()) {
        continue;
      }
      auto it = std::find(body_slots.begin(), body_slots.end(), t.var);
      if (it == body_slots.end()) continue;
      frontier.push_back(t.var);
      frontier_.push_back(static_cast<uint32_t>(it - body_slots.begin()));
    }
  }
  // The probe numbers the frontier first and the existential variables after
  // it in order of first appearance: exactly the frame's layout. With no
  // head variables and no built-ins the query is always safe.
  ConjunctiveQuery probe;
  probe.atoms = head_atoms;
  probe_ =
      QueryPlan::Compile(probe, db, QueryPlan::kNoSeed, frontier).MoveValue();
  existentials_ = probe_.slot_count() - frontier_.size();
  frame_.resize(probe_.slot_count());

  const std::vector<std::string>& slots = probe_.slots();
  for (const Atom& a : head_atoms) {
    HeadAtom atom;
    atom.relation = db.Find(a.relation);
    if (atom.relation == kNoRelation ||
        db.Arity(atom.relation) != a.terms.size()) {
      unresolved_ = Status::InvalidArgument("head atom " + a.ToString() +
                                            " names no relation of its arity");
    }
    for (const Term& t : a.terms) {
      Operand operand;
      if (t.is_var()) {
        auto slot = std::find(slots.begin(), slots.end(), t.var);
        operand = {false, static_cast<uint32_t>(slot - slots.begin())};
      } else {
        constants_.push_back(t.constant);
        operand = {true, static_cast<uint32_t>(constants_.size() - 1)};
      }
      if (atom.key == SIZE_MAX && !IsExistential(operand)) {
        atom.key = atom.terms.size();
      }
      atom.terms.push_back(operand);
    }
    atoms_.push_back(std::move(atom));
  }
}

Row RuleHead::Instantiate(const HeadAtom& atom) {
  row_.resize(atom.terms.size());
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    row_[i] = ValueOf(atom.terms[i]);
  }
  return Row(row_.data(), row_.size());
}

// True if some tuple of `relation` agrees with the atom on every position
// that is not existential. Uses the column index on the first such position
// to avoid full scans.
bool RuleHead::ProjectionPresent(const LogView& relation,
                                 const HeadAtom& atom) const {
  // Fully existential atom: any tuple witnesses it.
  if (atom.key == SIZE_MAX) return relation.size() > 0;
  auto matches = [&](Row row) {
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      if (!IsExistential(atom.terms[i]) &&
          ValueOf(atom.terms[i]) != row.at(i)) {
        return false;
      }
    }
    return true;
  };
  for (size_t e = relation.First(atom.key, ValueOf(atom.terms[atom.key]));
       e != TupleLog::kNone; e = relation.Next(atom.key, e)) {
    if (matches(relation.at(e))) return true;
  }
  return false;
}

Status RuleHead::Apply(Database* db, const std::vector<Value>& binding,
                       NullFactory* nulls, const ChaseOptions& options,
                       ChaseStats* stats) {
  if (options.max_null_depth > kMaxNullDepthLimit) {
    return Status::InvalidArgument(
        "max_null_depth " + std::to_string(options.max_null_depth) +
        " exceeds " + std::to_string(kMaxNullDepthLimit));
  }
  if (!unresolved_.ok()) return unresolved_;
  for (size_t i = 0; i < frontier_.size(); ++i) {
    frame_[i] = binding[frontier_[i]];
  }

  if (existentials_ > 0) {
    const uint32_t base_depth = MaxNullDepth(binding);
    if (base_depth + 1 >= options.max_null_depth) {
      ++stats->truncated;
      return Status::OK();
    }
    // A witness stops the probe, so its run reports being stopped.
    if (options.policy == ChasePolicy::kHomomorphismCheck &&
        !probe_.Run(*db, &frame_,
                    [](const std::vector<Value>&) { return false; })) {
      ++stats->skipped;
      return Status::OK();
    }
    // Decide which atoms to insert *before* minting nulls so both policies
    // share the instantiation path.
    std::vector<bool> present(atoms_.size(), false);
    if (options.policy == ChasePolicy::kProjectionCheck) {
      bool all_present = true;
      for (size_t i = 0; i < atoms_.size(); ++i) {
        present[i] = ProjectionPresent(db->View(atoms_[i].relation), atoms_[i]);
        all_present = all_present && present[i];
      }
      if (all_present) {
        ++stats->skipped;
        return Status::OK();
      }
    }
    for (size_t i = frontier_.size(); i < frame_.size(); ++i) {
      auto null = nulls->Fresh(base_depth);
      if (!null.ok()) return null.status();  // Before any insert.
      frame_[i] = *null;
    }
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (present[i]) continue;
      auto added =
          db->relation(atoms_[i].relation).Insert(Instantiate(atoms_[i]));
      if (!added.ok()) return added.status();
      if (*added) ++stats->inserted;
    }
    return Status::OK();
  }

  // Fully bound head: plain set insertion.
  bool any_inserted = false;
  for (const HeadAtom& atom : atoms_) {
    auto added = db->relation(atom.relation).Insert(Instantiate(atom));
    if (!added.ok()) return added.status();
    if (*added) {
      ++stats->inserted;
      any_inserted = true;
    }
  }
  if (!any_inserted) ++stats->skipped;
  return Status::OK();
}

Status ApplyRule(Database* db, const ReadView& source,
                 const ConjunctiveQuery& body,
                 const std::vector<Atom>& head_atoms, NullFactory* nulls,
                 const ChaseOptions& options, ChaseStats* stats) {
  auto plan = QueryPlan::Compile(body, source);
  if (!plan.ok()) return plan.status();
  std::vector<std::vector<Value>> bindings;
  std::vector<Value> binding;
  plan->Run(source, &binding, [&](const std::vector<Value>& b) {
    bindings.push_back(b);
    return true;
  });
  RuleHead head(head_atoms, plan->slots(), *db);
  for (const std::vector<Value>& b : bindings) {
    P2PDB_RETURN_IF_ERROR(head.Apply(db, b, nulls, options, stats));
  }
  return Status::OK();
}

}  // namespace p2pdb::rel
