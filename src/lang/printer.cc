#include "src/lang/printer.h"

#include "src/core/dependency.h"
#include "src/util/string_util.h"

namespace p2pdb::lang {

namespace {

std::string PrintValue(const rel::Value& v) {
  switch (v.kind()) {
    case rel::ValueKind::kInt:
      return std::to_string(v.AsInt());
    case rel::ValueKind::kString:
      return "\"" + v.AsStr() + "\"";
    case rel::ValueKind::kNull:
      return v.ToString();
  }
  return "?";
}

std::string PrintTerm(const rel::Term& t) {
  return t.is_var() ? t.var : PrintValue(t.constant);
}

std::string PrintAtom(const rel::Atom& atom, const std::string& node_prefix) {
  std::string out = node_prefix.empty() ? "" : node_prefix + ".";
  out += atom.relation + "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintTerm(atom.terms[i]);
  }
  return out + ")";
}

std::string PrintBuiltin(const rel::Builtin& b) {
  return PrintTerm(b.lhs) + " " + rel::BuiltinOpName(b.op) + " " +
         PrintTerm(b.rhs);
}

}  // namespace

std::string PrintRule(const core::P2PSystem& system,
                      const core::CoordinationRule& rule) {
  std::vector<std::string> body;
  for (const core::CoordinationRule::BodyPart& p : rule.body) {
    const std::string& node_name = system.node(p.node).name;
    for (const rel::Atom& a : p.atoms) body.push_back(PrintAtom(a, node_name));
    for (const rel::Builtin& b : p.builtins) body.push_back(PrintBuiltin(b));
  }
  for (const rel::Builtin& b : rule.cross_builtins) {
    body.push_back(PrintBuiltin(b));
  }
  std::vector<std::string> head;
  const std::string& head_name = system.node(rule.head_node).name;
  for (const rel::Atom& a : rule.head_atoms) {
    head.push_back(PrintAtom(a, head_name));
  }
  return "rule " + rule.id + ": " + JoinStrings(body, ", ") + " => " +
         JoinStrings(head, ", ") + ";";
}

std::string PrintSystem(const core::P2PSystem& system) {
  std::string out;
  for (const core::NodeInfo& info : system.nodes()) {
    out += "node " + info.name + " {\n";
    for (const rel::Relation& relation : info.db.relations()) {
      out += "  rel " + relation.name() + "(" +
             JoinStrings(relation.schema().attributes(), ", ") + ");\n";
    }
    for (const rel::Relation& relation : info.db.relations()) {
      for (const rel::Tuple& t : relation.SortedTuples()) {
        std::vector<std::string> values;
        for (const rel::Value& v : t.values()) values.push_back(PrintValue(v));
        out += "  fact " + relation.name() + "(" + JoinStrings(values, ", ") +
               ");\n";
      }
    }
    out += "}\n";
  }
  for (const core::CoordinationRule& rule : system.rules()) {
    out += PrintRule(system, rule) + "\n";
  }
  return out;
}

std::string FormatMaximalPathsTable(const core::P2PSystem& system) {
  core::DependencyGraph graph =
      core::DependencyGraph::FromRules(system.rules());
  std::string out = "node | maximal dependency paths\n";
  out += "-----+------------------------------\n";
  for (const core::NodeInfo& info : system.nodes()) {
    std::vector<std::vector<NodeId>> paths = graph.MaximalPathsFrom(info.id);
    std::vector<std::string> rendered;
    for (const auto& p : paths) rendered.push_back(PathToString(p, &system));
    out += StrFormat("%-4s | %s\n", info.name.c_str(),
                     JoinStrings(rendered, ", ").c_str());
  }
  return out;
}

}  // namespace p2pdb::lang
