// E1 — regenerates the Section 2 in-text table: the maximal dependency paths
// of the running example (nodes A..E, rules r1..r7), computed both offline
// (from the rule set) and by the distributed discovery algorithm, which must
// agree.
#include <cstdio>

#include "src/core/dependency.h"
#include "src/core/session.h"
#include "src/lang/printer.h"
#include "src/net/sim_runtime.h"
#include "src/workload/scenario.h"

using namespace p2pdb;  // NOLINT

int main() {
  auto system = workload::MakeRunningExample();
  if (!system.ok()) {
    std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
    return 1;
  }
  std::printf("Running example of Section 2 (rules):\n");
  for (const core::CoordinationRule& r : system->rules()) {
    std::printf("  %s\n", lang::PrintRule(*system, r).c_str());
  }

  std::printf("\nMaximal dependency paths (offline enumeration, Defs. 6-7):\n");
  std::printf("%s", lang::FormatMaximalPathsTable(*system).c_str());

  // The same table, produced by the distributed discovery protocol (A1-A3).
  net::SimRuntime rt;
  core::Session session(*system, &rt);
  if (!session.RunDiscovery().ok()) {
    std::fprintf(stderr, "discovery failed\n");
    return 1;
  }
  std::printf("\nMaximal dependency paths (distributed discovery, A1-A3):\n");
  std::printf("node | paths\n-----+------------------------------\n");
  bool all_match = true;
  core::DependencyGraph offline =
      core::DependencyGraph::FromRules(system->rules());
  for (size_t n = 0; n < session.peer_count(); ++n) {
    auto paths = session.peer(n).MaximalPaths();
    std::string row;
    for (const auto& p : paths) {
      if (!row.empty()) row += ", ";
      row += core::PathToString(p, &*system);
    }
    std::printf("%-4s | %s\n", system->node(n).name.c_str(), row.c_str());
    auto expected = offline.MaximalPathsFrom(static_cast<NodeId>(n));
    std::set<std::vector<NodeId>> a(paths.begin(), paths.end());
    std::set<std::vector<NodeId>> b(expected.begin(), expected.end());
    if (a != b) all_match = false;
  }
  std::printf("\ndiscovery matches offline enumeration: %s\n",
              all_match ? "yes" : "NO");
  std::printf(
      "paper note: the technical report's table is garbled by PDF layout;\n"
      "the entries recoverable from it (ABCA ABE ABCB for A; BE BCAB BCB\n"
      "BCDAB for B; DABE/DABCD/DABCB/DABCA for D) agree with this\n"
      "enumeration.\n");
  return all_match ? 0 : 1;
}
