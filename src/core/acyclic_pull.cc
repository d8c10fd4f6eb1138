#include "src/core/acyclic_pull.h"

#include <algorithm>

#include "src/core/dependency.h"
#include "src/core/wire.h"
#include "src/relational/eval.h"

namespace p2pdb::core {

namespace {
constexpr uint32_t kAcyclicChaseNode = 0xfffffffdu;

/// The bytes a runtime's NetStats counts for one message: its frame's size.
size_t FrameBytes(net::MessageType type, NodeId from, NodeId to,
                  std::vector<uint8_t> payload) {
  net::Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = to;
  msg.payload = std::move(payload);
  return msg.WireSize();
}
}  // namespace

Result<AcyclicPullResult> RunAcyclicPull(
    const P2PSystem& system, const rel::ChaseOptions& chase_options) {
  DependencyGraph graph = DependencyGraph::FromRules(system.rules());
  if (!graph.IsAcyclic()) {
    return Status::InvalidArgument(
        "acyclic pull requires an acyclic dependency graph");
  }

  AcyclicPullResult result;
  result.node_dbs.reserve(system.node_count());
  for (const NodeInfo& info : system.nodes()) {
    result.node_dbs.push_back(info.db);
  }
  rel::NullFactory nulls(kAcyclicChaseNode);

  // Topological order has every dependency edge (head -> body) pointing
  // forward, so processing in reverse order finalizes body nodes first.
  auto order = graph.TopologicalOrder();
  if (!order.ok()) return order.status();
  std::vector<NodeId> processing(*order);
  std::reverse(processing.begin(), processing.end());
  // Nodes absent from the graph (no rules touch them) need no processing.

  for (NodeId node : processing) {
    for (const CoordinationRule* rule : system.RulesWithHead(node)) {
      // Pull each part from its (already final) source: one request + one
      // answer per part, counted as the frames the protocol would send.
      rel::Database scratch;
      rel::ConjunctiveQuery join;
      bool parts_ok = true;
      for (size_t p = 0; p < rule->body.size(); ++p) {
        const CoordinationRule::BodyPart& part = rule->body[p];
        rel::ConjunctiveQuery part_query = rule->PartQuery(p);
        auto answer =
            rel::EvaluateQuery(result.node_dbs[part.node], part_query);
        if (!answer.ok()) return answer.status();

        wire::QueryRequest req;
        req.rule_id = rule->id;
        req.part = static_cast<uint32_t>(p);
        req.query = part_query;
        wire::QueryAnswer ans;
        ans.rule_id = rule->id;
        ans.part = static_cast<uint32_t>(p);
        ans.tuples.assign(answer->begin(), answer->end());
        result.messages += 2;
        result.bytes += FrameBytes(net::MessageType::kQueryRequest, node,
                                   part.node, req.Encode());
        result.bytes += FrameBytes(net::MessageType::kQueryAnswer, part.node,
                                   node, ans.Encode());

        std::vector<std::string> vars = rule->PartExportVars(p);
        std::string scratch_name = "$" + rule->id + ":" + std::to_string(p);
        auto scratch_rel =
            scratch.CreateRelation(rel::RelationSchema(scratch_name, vars));
        if (!scratch_rel.ok()) {
          parts_ok = false;
          break;
        }
        for (const rel::Tuple& t : rule->domain_map.ApplyToSet(*answer)) {
          (void)(*scratch_rel)->Insert(t);
        }
        rel::Atom atom;
        atom.relation = scratch_name;
        for (const std::string& v : vars) {
          atom.terms.push_back(rel::Term::Var(v));
        }
        join.atoms.push_back(std::move(atom));
      }
      if (!parts_ok) continue;
      join.builtins = rule->cross_builtins;
      rel::ChaseStats step;
      P2PDB_RETURN_IF_ERROR(rel::ApplyRule(&result.node_dbs[node], scratch,
                                           join, rule->head_atoms, &nulls,
                                           chase_options, &step));
    }
  }
  return result;
}

}  // namespace p2pdb::core
