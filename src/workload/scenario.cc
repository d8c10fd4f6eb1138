#include "src/workload/scenario.h"

#include <algorithm>

#include "src/core/dependency.h"
#include "src/lang/parser.h"
#include "src/util/string_util.h"
#include "src/workload/rulegen.h"

namespace p2pdb::workload {

Result<core::P2PSystem> BuildScenario(const ScenarioOptions& options) {
  auto edges = GenerateTopology(options.topology);
  if (!edges.ok()) return edges.status();
  size_t n = options.topology.nodes;
  Rng rng(options.seed);

  // Per-node record sets: a disjoint base range per node, then overlap copied
  // along rule links with the requested probability.
  std::vector<std::vector<PubRecord>> records(n);
  for (NodeId node = 0; node < n; ++node) {
    Rng node_rng = rng.Fork();
    const int64_t first_id = static_cast<int64_t>(node) *
                             static_cast<int64_t>(options.records_per_node);
    records[node] = GeneratePubs(first_id, options.records_per_node,
                                 options.author_pool, &node_rng);
  }
  for (const Edge& e : *edges) {
    if (!rng.NextBool(options.link_overlap_prob)) continue;
    // The head node's initial data intersects the body node's: copy a prefix
    // fraction of the body records into the head set.
    size_t share = static_cast<size_t>(
        static_cast<double>(records[e.second].size()) *
        options.overlap_fraction);
    for (size_t k = 0; k < share; ++k) {
      records[e.first].push_back(records[e.second][k]);
    }
  }

  core::P2PSystem system;
  for (NodeId node = 0; node < n; ++node) {
    SchemaStyle style = StyleForNode(node);
    rel::Database db = MakeNodeSchema(node, style);
    P2PDB_RETURN_IF_ERROR(InsertRecords(&db, node, style, records[node]));
    P2PDB_RETURN_IF_ERROR(
        system.AddNode(StrFormat("N%u", node), std::move(db)));
  }
  size_t rule_seq = 0;
  for (const Edge& e : *edges) {
    core::CoordinationRule rule = MakeTranslationRule(
        StrFormat("r%zu_%u_%u", rule_seq++, e.first, e.second), e.first,
        StyleForNode(e.first), e.second, StyleForNode(e.second));
    P2PDB_RETURN_IF_ERROR(system.AddRule(std::move(rule)));
  }
  return system;
}

Result<core::P2PSystem> MakeRunningExample() {
  // The example system of Section 2 verbatim (r2's "b(Y), Z" is the paper's
  // typo for b(Y, Z)), with seed facts so updates move data: E holds base
  // pairs and B holds one pair enabling r4's inequality join.
  static const char kExample[] = R"(
node A { rel a(x, y); }
node B {
  rel b(x, y);
  fact b("u", "w");
}
node C {
  rel c(x, y);
  rel f(x);
}
node D { rel d(x, y); }
node E {
  rel e(x, y);
  fact e("u", "v");
  fact e("v", "w");
  fact e("w", "u");
}
rule r1: E.e(X, Y) => B.b(X, Y);
rule r2: B.b(X, Y), B.b(Y, Z) => C.c(X, Z);
rule r3: C.c(X, Y), C.c(Y, Z) => B.b(X, Z);
rule r4: B.b(X, Y), B.b(X, Z), X != Z => A.a(X, Y);
rule r5: A.a(X, Y) => C.f(X);
rule r6: A.a(X, Y) => D.d(Y, X);
rule r7: D.d(X, Y), D.d(Y, Z) => C.c(X, Y);
)";
  return lang::ParseSystem(kExample);
}

Result<core::ChurnScript> PlanCrashRestart(const core::P2PSystem& system,
                                           NodeId super_peer,
                                           const ChurnPlanOptions& options) {
  if (super_peer >= system.node_count()) {
    return Status::InvalidArgument("super peer out of range");
  }
  std::set<NodeId> participants =
      core::UpdateParticipants(system.rules(), super_peer);
  participants.erase(super_peer);  // The initiator itself never crashes.
  std::vector<NodeId> candidates(participants.begin(), participants.end());
  if (candidates.empty()) {
    return Status::InvalidArgument(
        "no crash candidates: the super-peer reaches no other node");
  }
  Rng rng(options.seed);
  rng.Shuffle(&candidates);

  size_t crashes = std::min(options.crashes, candidates.size());
  core::ChurnScript script;
  for (size_t i = 0; i < crashes; ++i) {
    uint64_t crash_at = options.crash_at_micros +
                        static_cast<uint64_t>(i) * options.stagger_micros;
    script.push_back(core::ChurnEvent::Crash(crash_at, candidates[i]));
    script.push_back(core::ChurnEvent::Restart(
        crash_at + options.downtime_micros, candidates[i]));
  }
  // Stable: a zero-downtime crash/restart pair shares a timestamp and must
  // keep its crash-before-restart push order.
  std::stable_sort(script.begin(), script.end(),
                   [](const core::ChurnEvent& a, const core::ChurnEvent& b) {
                     return a.at_micros < b.at_micros;
                   });
  return script;
}

}  // namespace p2pdb::workload
