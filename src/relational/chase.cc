#include "src/relational/chase.h"

#include <set>

#include "src/relational/eval.h"

namespace p2pdb::rel {

namespace {

// Collects head variables that are not bound by the body binding: these are
// the existential variables of the rule.
std::vector<std::string> ExistentialVars(const std::vector<Atom>& head_atoms,
                                         const Binding& binding) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Atom& a : head_atoms) {
    for (const Term& t : a.terms) {
      if (t.is_var() && !binding.count(t.var) && seen.insert(t.var).second) {
        out.push_back(t.var);
      }
    }
  }
  return out;
}

uint32_t MaxNullDepth(const Binding& binding) {
  uint32_t depth = 0;
  for (const auto& [name, value] : binding) {
    if (value.is_null()) {
      uint32_t d = NullFactory::DepthBitsOf(value.null_id());
      if (d > depth) depth = d;
    }
  }
  return depth;
}

// True if some tuple of `relation` agrees with the atom on every position
// whose term is bound under `binding` (constants are always bound). Uses the
// column index on the first bound position to avoid full scans.
bool ProjectionPresent(const LogView& relation, const Atom& atom,
                       const Binding& binding) {
  if (atom.terms.size() != relation.arity()) return false;
  auto matches = [&](const Tuple& tuple) {
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      if (!t.is_var()) {
        if (!(t.constant == tuple.at(i))) return false;
      } else {
        auto it = binding.find(t.var);
        if (it != binding.end() && !(it->second == tuple.at(i))) return false;
        // Unbound (existential) position: any value matches.
      }
    }
    return true;
  };

  // First bound position, if any, narrows the candidates via the index.
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    const Value* key = nullptr;
    if (!t.is_var()) {
      key = &t.constant;
    } else {
      auto it = binding.find(t.var);
      if (it != binding.end()) key = &it->second;
    }
    if (key == nullptr) continue;
    for (size_t e = relation.First(i, *key); e != TupleLog::kNone;
         e = relation.Next(i, e)) {
      if (matches(relation.at(e))) return true;
    }
    return false;
  }
  // Fully existential atom: any tuple witnesses it.
  return relation.size() > 0;
}

// True if `binding` extends to a homomorphism making every head atom present.
// Runs the head itself as a query, with the bound variables frozen to
// constants.
bool HomomorphismPresent(const Database& db,
                         const std::vector<Atom>& head_atoms,
                         const Binding& binding) {
  ConjunctiveQuery probe;
  for (const Atom& a : head_atoms) {
    Atom frozen;
    frozen.relation = a.relation;
    for (const Term& t : a.terms) {
      if (t.is_var()) {
        auto it = binding.find(t.var);
        frozen.terms.push_back(it == binding.end() ? t
                                                   : Term::Const(it->second));
      } else {
        frozen.terms.push_back(t);
      }
    }
    probe.atoms.push_back(std::move(frozen));
  }
  auto result = EvaluateBindings(db, probe);
  return result.ok() && !result->empty();
}

Tuple InstantiateAtom(const Atom& atom, const Binding& binding) {
  std::vector<Value> row;
  row.reserve(atom.terms.size());
  for (const Term& t : atom.terms) {
    row.push_back(t.is_var() ? binding.at(t.var) : t.constant);
  }
  return Tuple(std::move(row));
}

}  // namespace

Status ApplyRuleHead(Database* db, const std::vector<Atom>& head_atoms,
                     const Binding& binding, NullFactory* nulls,
                     const ChaseOptions& options, ChaseStats* stats) {
  std::vector<std::string> existentials = ExistentialVars(head_atoms, binding);

  if (!existentials.empty()) {
    uint32_t base_depth = MaxNullDepth(binding);
    if (base_depth + 1 >= options.max_null_depth) {
      ++stats->truncated;
      return Status::OK();
    }
    if (options.policy == ChasePolicy::kHomomorphismCheck &&
        HomomorphismPresent(*db, head_atoms, binding)) {
      ++stats->skipped;
      return Status::OK();
    }
    // Decide which atoms to insert *before* minting nulls so both policies
    // share the instantiation path.
    std::vector<const Atom*> to_insert;
    if (options.policy == ChasePolicy::kProjectionCheck) {
      for (const Atom& a : head_atoms) {
        auto rel = db->Get(a.relation);
        if (!rel.ok()) return rel.status();
        if (!ProjectionPresent((*rel)->View(), a, binding)) {
          to_insert.push_back(&a);
        }
      }
      if (to_insert.empty()) {
        ++stats->skipped;
        return Status::OK();
      }
    } else {
      for (const Atom& a : head_atoms) to_insert.push_back(&a);
    }
    Binding extended = binding;
    for (const std::string& v : existentials) {
      extended.emplace(v, nulls->Fresh(base_depth));
    }
    for (const Atom* a : to_insert) {
      auto added = db->Insert(a->relation, InstantiateAtom(*a, extended));
      if (!added.ok()) return added.status();
      if (*added) ++stats->inserted;
    }
    return Status::OK();
  }

  // Fully bound head: plain set insertion.
  bool any_inserted = false;
  for (const Atom& a : head_atoms) {
    auto added = db->Insert(a.relation, InstantiateAtom(a, binding));
    if (!added.ok()) return added.status();
    if (*added) {
      ++stats->inserted;
      any_inserted = true;
    }
  }
  if (!any_inserted) ++stats->skipped;
  return Status::OK();
}

Status ApplyRuleHeadAll(Database* db, const std::vector<Atom>& head_atoms,
                        const std::vector<Binding>& bindings,
                        NullFactory* nulls, const ChaseOptions& options,
                        ChaseStats* stats) {
  for (const Binding& b : bindings) {
    P2PDB_RETURN_IF_ERROR(
        ApplyRuleHead(db, head_atoms, b, nulls, options, stats));
  }
  return Status::OK();
}

}  // namespace p2pdb::rel
