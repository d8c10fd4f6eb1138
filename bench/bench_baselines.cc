// B1 — baseline comparison implied by the related-work discussion (Section 1):
//   * distributed update (this paper),
//   * centralized global fix-point ([Calvanese et al. 2003]-style),
//   * acyclic single-pass pull ([Halevy et al. 2003]-style; DAGs only).
// All three must produce the same instances on DAGs; the distributed
// algorithm additionally handles cycles, at a message cost.
#include <chrono>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/acyclic_pull.h"
#include "src/relational/null_iso.h"

using namespace p2pdb;        // NOLINT
using namespace p2pdb::bench;  // NOLINT

namespace {

rel::ChaseOptions HomChase() {
  rel::ChaseOptions chase;
  chase.policy = rel::ChasePolicy::kHomomorphismCheck;
  return chase;
}

}  // namespace

int main() {
  const size_t records = FullScale() ? 650 : 150;
  using Kind = workload::TopologySpec::Kind;

  PrintHeader(
      "B1 baselines: distributed vs centralized-global vs acyclic-pull");
  std::printf("%-12s %5s | %10s %12s | %10s | %10s %12s %7s\n", "topology",
              "nodes", "dist-wall", "dist-msgs", "global-wall", "pull-wall",
              "pull-msgs", "agree");

  for (Kind kind : {Kind::kTree, Kind::kLayeredDag, Kind::kRing}) {
    workload::ScenarioOptions options;
    options.topology.kind = kind;
    options.topology.nodes = kind == Kind::kRing ? 8 : 15;
    options.topology.layers = 4;
    options.records_per_node = kind == Kind::kRing ? records / 3 : records;

    core::Session::Options session_options;
    session_options.peer.update.chase = HomChase();
    RunMetrics dist = RunScenario(options, session_options);

    auto system = workload::BuildScenario(options);
    if (!system.ok()) continue;

    auto t0 = std::chrono::steady_clock::now();
    auto global = core::ComputeGlobalFixpoint(*system, HomChase());
    auto t1 = std::chrono::steady_clock::now();
    double global_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    double pull_ms = -1;
    uint64_t pull_msgs = 0;
    bool agree = global.ok();
    auto t2 = std::chrono::steady_clock::now();
    auto pull = core::RunAcyclicPull(*system, HomChase());
    auto t3 = std::chrono::steady_clock::now();
    if (pull.ok()) {
      pull_ms = std::chrono::duration<double, std::milli>(t3 - t2).count();
      pull_msgs = pull->messages;
      if (global.ok()) {
        for (size_t n = 0; n < system->node_count(); ++n) {
          if (!rel::DatabasesCertainEqual(pull->node_dbs[n],
                                          global->node_dbs[n])) {
            agree = false;
          }
        }
      }
    }

    char pull_wall[32];
    if (pull_ms >= 0) {
      std::snprintf(pull_wall, sizeof(pull_wall), "%10.1f", pull_ms);
    } else {
      std::snprintf(pull_wall, sizeof(pull_wall), "%10s", "n/a(cycle)");
    }
    std::printf("%-12s %5zu | %9.1fms %12llu | %9.1fms | %s %12llu %7s\n",
                workload::TopologyKindName(kind), options.topology.nodes,
                dist.wall_ms, static_cast<unsigned long long>(dist.messages),
                global_ms, pull_wall,
                static_cast<unsigned long long>(pull_msgs),
                agree ? "yes" : "NO");
  }
  std::printf(
      "\nshape: the acyclic pull is the message lower bound on DAGs but fails\n"
      "on rings; the centralized baseline needs no messages but a global\n"
      "coordinator; the distributed algorithm covers cycles with bounded\n"
      "extra traffic (subscriptions + fix-point tokens).\n");
  return 0;
}
