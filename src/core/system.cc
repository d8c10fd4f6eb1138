#include "src/core/system.h"

#include <set>

#include "src/util/string_util.h"

namespace p2pdb::core {

std::vector<std::string> CoordinationRule::PartExportVars(size_t index) const {
  std::set<std::string> needed;
  for (const rel::Atom& a : head_atoms) {
    for (const rel::Term& t : a.terms) {
      if (t.is_var()) needed.insert(t.var);
    }
  }
  for (size_t p = 0; p < body.size(); ++p) {
    if (p == index) continue;
    for (const rel::Atom& a : body[p].atoms) {
      for (const rel::Term& t : a.terms) {
        if (t.is_var()) needed.insert(t.var);
      }
    }
  }
  for (const rel::Builtin& b : cross_builtins) {
    for (const rel::Term* t : {&b.lhs, &b.rhs}) {
      if (t->is_var()) needed.insert(t->var);
    }
  }
  // Keep this part's variables that are needed elsewhere, in first-appearance
  // order for determinism.
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const rel::Atom& a : body[index].atoms) {
    for (const rel::Term& t : a.terms) {
      if (t.is_var() && needed.count(t.var) && seen.insert(t.var).second) {
        out.push_back(t.var);
      }
    }
  }
  return out;
}

rel::ConjunctiveQuery CoordinationRule::PartQuery(size_t index) const {
  rel::ConjunctiveQuery q;
  q.head_vars = PartExportVars(index);
  q.atoms = body[index].atoms;
  q.builtins = body[index].builtins;
  return q;
}

std::vector<std::string> CoordinationRule::ExistentialVars() const {
  std::set<std::string> body_vars;
  for (const BodyPart& p : body) {
    for (const rel::Atom& a : p.atoms) {
      for (const rel::Term& t : a.terms) {
        if (t.is_var()) body_vars.insert(t.var);
      }
    }
  }
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const rel::Atom& a : head_atoms) {
    for (const rel::Term& t : a.terms) {
      if (t.is_var() && !body_vars.count(t.var) && seen.insert(t.var).second) {
        out.push_back(t.var);
      }
    }
  }
  return out;
}

std::vector<NodeId> CoordinationRule::BodyNodes() const {
  std::vector<NodeId> out;
  out.reserve(body.size());
  for (const BodyPart& p : body) out.push_back(p.node);
  return out;
}

std::string CoordinationRule::ToString() const {
  std::vector<std::string> body_parts;
  for (const BodyPart& p : body) {
    for (const rel::Atom& a : p.atoms) {
      body_parts.push_back(StrFormat("%u:", p.node) + a.ToString());
    }
    for (const rel::Builtin& b : p.builtins) {
      body_parts.push_back(b.ToString());
    }
  }
  for (const rel::Builtin& b : cross_builtins) {
    body_parts.push_back(b.ToString());
  }
  std::vector<std::string> head_parts;
  for (const rel::Atom& a : head_atoms) {
    head_parts.push_back(StrFormat("%u:", head_node) + a.ToString());
  }
  return id + ": " + JoinStrings(body_parts, ", ") + " => " +
         JoinStrings(head_parts, ", ");
}

Status P2PSystem::AddNode(std::string name, rel::Database db) {
  if (name_to_id_.count(name)) {
    return Status::AlreadyExists("node " + name);
  }
  NodeId id = static_cast<NodeId>(nodes_.size());
  name_to_id_.emplace(name, id);
  nodes_.push_back(NodeInfo{id, std::move(name), std::move(db)});
  return Status::OK();
}

Status P2PSystem::ValidateRule(const CoordinationRule& rule) const {
  if (rule.id.empty()) return Status::InvalidArgument("rule id empty");
  // A body or head atom must name a relation of its node, at its arity.
  auto check_atom = [&](const rel::Atom& a, NodeId node, const char* kind) {
    const rel::RelationId relation = nodes_[node].db.Find(a.relation);
    if (relation == rel::kNoRelation) {
      return Status::InvalidArgument("rule " + rule.id + ": " + kind +
                                     " atom " + a.ToString() + " not in node " +
                                     nodes_[node].name);
    }
    if (nodes_[node].db.Arity(relation) != a.terms.size()) {
      return Status::InvalidArgument("rule " + rule.id + ": arity mismatch " +
                                     a.ToString());
    }
    return Status::OK();
  };
  if (rule.head_node >= nodes_.size()) {
    return Status::InvalidArgument("rule " + rule.id + ": bad head node");
  }
  if (rule.head_atoms.empty()) {
    return Status::InvalidArgument("rule " + rule.id + ": empty head");
  }
  if (rule.body.empty()) {
    return Status::InvalidArgument("rule " + rule.id + ": empty body");
  }
  std::set<NodeId> body_nodes;
  for (const CoordinationRule::BodyPart& p : rule.body) {
    if (p.node >= nodes_.size()) {
      return Status::InvalidArgument("rule " + rule.id + ": bad body node");
    }
    if (p.node == rule.head_node) {
      return Status::InvalidArgument(
          "rule " + rule.id + ": body node equals head node (Definition 2 "
          "requires distinct indices)");
    }
    if (!body_nodes.insert(p.node).second) {
      return Status::InvalidArgument("rule " + rule.id +
                                     ": duplicate body node part");
    }
    if (p.atoms.empty()) {
      return Status::InvalidArgument("rule " + rule.id + ": empty body part");
    }
    for (const rel::Atom& a : p.atoms) {
      P2PDB_RETURN_IF_ERROR(check_atom(a, p.node, "body"));
    }
  }
  for (const rel::Atom& a : rule.head_atoms) {
    P2PDB_RETURN_IF_ERROR(check_atom(a, rule.head_node, "head"));
  }
  for (const auto& existing : rules_) {
    if (existing.id == rule.id) {
      return Status::AlreadyExists("rule " + rule.id);
    }
  }
  return Status::OK();
}

Status P2PSystem::AddRule(CoordinationRule rule) {
  P2PDB_RETURN_IF_ERROR(ValidateRule(rule));
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Status P2PSystem::RemoveRule(const std::string& rule_id) {
  for (auto it = rules_.begin(); it != rules_.end(); ++it) {
    if (it->id == rule_id) {
      rules_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("rule " + rule_id);
}

Result<NodeId> P2PSystem::NodeByName(const std::string& name) const {
  auto it = name_to_id_.find(name);
  if (it == name_to_id_.end()) return Status::NotFound("node " + name);
  return it->second;
}

Result<const CoordinationRule*> P2PSystem::RuleById(
    const std::string& id) const {
  for (const auto& r : rules_) {
    if (r.id == id) return &r;
  }
  return Status::NotFound("rule " + id);
}

std::vector<const CoordinationRule*> P2PSystem::RulesWithHead(
    NodeId node) const {
  std::vector<const CoordinationRule*> out;
  for (const auto& r : rules_) {
    if (r.head_node == node) out.push_back(&r);
  }
  return out;
}

Result<rel::Database> P2PSystem::CombinedDatabase() const {
  rel::Database combined;
  for (const NodeInfo& n : nodes_) {
    for (const rel::Relation& relation : n.db.relations()) {
      P2PDB_ASSIGN_OR_RETURN(auto dst,
                             combined.CreateRelation(relation.schema()));
      // Sorted, so the oracle's chase (and its null count) does not depend
      // on the order the node's tuples were inserted in.
      for (const rel::Tuple& t : relation.SortedTuples()) {
        P2PDB_RETURN_IF_ERROR(dst->Insert(t).status());
      }
    }
  }
  return combined;
}

std::string P2PSystem::ToString() const {
  std::string out;
  for (const NodeInfo& n : nodes_) {
    out += StrFormat("node %u (%s): %zu relations, %zu tuples\n", n.id,
                     n.name.c_str(), n.db.relations().size(),
                     n.db.TotalTuples());
  }
  for (const auto& r : rules_) out += r.ToString() + "\n";
  return out;
}

}  // namespace p2pdb::core
