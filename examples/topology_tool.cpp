// Topology tool: loads a network description (file argument, or the paper's
// running example by default), prints the rules, the table of maximal
// dependency paths, strongly connected components, and chase-termination
// diagnostics — everything a node operator would want to know before starting
// an update.
//
//   ./topology_tool [network.p2p]
#include <cstdio>

#include "src/core/dependency.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/util/file_util.h"
#include "src/workload/scenario.h"

using namespace p2pdb;  // NOLINT

int main(int argc, char** argv) {
  Result<core::P2PSystem> system = Status::Internal("unset");
  if (argc > 1) {
    std::string text;
    if (Status read = ReadFile(argv[1], &text); !read.ok()) {
      std::fprintf(stderr, "%s\n", read.ToString().c_str());
      return 1;
    }
    system = lang::ParseSystem(text);
  } else {
    std::printf("(no file given; using the paper's Section 2 example)\n\n");
    system = workload::MakeRunningExample();
  }
  if (!system.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  std::printf("nodes and rules:\n%s\n", lang::PrintSystem(*system).c_str());

  core::DependencyGraph graph =
      core::DependencyGraph::FromRules(system->rules());

  std::printf("dependency edges (head -> body):\n");
  for (const core::Edge& e : graph.edges()) {
    std::printf("  %s -> %s\n", system->node(e.first).name.c_str(),
                system->node(e.second).name.c_str());
  }

  std::printf("\n%s\n", lang::FormatMaximalPathsTable(*system).c_str());

  std::printf("strongly connected components:\n");
  for (const std::set<NodeId>& scc : graph.StronglyConnectedComponents()) {
    std::printf("  {");
    bool first = true;
    for (NodeId n : scc) {
      std::printf("%s%s", first ? "" : ", ", system->node(n).name.c_str());
      first = false;
    }
    std::printf("}%s\n", scc.size() > 1 ? "  <- cyclic: needs the token ring"
                                        : "");
  }

  std::printf("\nacyclic: %s\n", graph.IsAcyclic() ? "yes" : "no");
  std::printf("weakly acyclic rule set (chase terminates without the depth "
              "bound): %s\n",
              core::RulesAreWeaklyAcyclic(system->rules()) ? "yes" : "no");
  if (!graph.edges().empty()) {
    std::printf("depth from %s: %zu\n", system->node(0).name.c_str(),
                graph.DepthFrom(0));
  }
  return 0;
}
