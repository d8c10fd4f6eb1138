// Quickstart: define a tiny P2P database network in the rule language, run
// topology discovery and a global update, then answer a query locally.
//
//   ./quickstart
#include <cstdio>

#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/net/sim_runtime.h"

using namespace p2pdb;  // NOLINT

int main() {
  // Three peers: a library catalog (source), an aggregator, and a reading
  // club that mirrors the aggregator. The club also feeds back suggestions,
  // closing a cycle between Agg and Club.
  const char* network = R"(
node Library {
  rel book(title, author);
  fact book("tractatus", "wittgenstein");
  fact book("monadology", "leibniz");
}
node Agg {
  rel holding(title, author);
}
node Club {
  rel pick(title, author);
  fact pick("ethics", "spinoza");
}
rule collect: Library.book(T, A) => Agg.holding(T, A);
rule mirror:  Agg.holding(T, A)  => Club.pick(T, A);
rule suggest: Club.pick(T, A)    => Agg.holding(T, A);
)";

  auto system = lang::ParseSystem(network);
  if (!system.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }
  std::printf("network:\n%s\n", lang::PrintSystem(*system).c_str());

  // A deterministic simulated network; swap in net::TcpRuntime to make every
  // peer a real socket endpoint. The super-peer must reach the whole network
  // over dependency edges (head -> body): Club -> Agg -> {Library, Club}.
  net::SimRuntime runtime;
  core::Session::Options options;
  options.super_peer = *system->NodeByName("Club");
  core::Session session(*system, &runtime, options);

  // Phase 1 (A1-A3): every peer learns its maximal dependency paths.
  if (Status st = session.RunDiscovery(); !st.ok()) {
    std::fprintf(stderr, "discovery failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("maximal dependency paths:\n%s\n",
              lang::FormatMaximalPathsTable(*system).c_str());

  // Phase 2 (A4-A6): propagate all data to the fix-point.
  if (Status st = session.RunUpdate(); !st.ok()) {
    std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("all peers closed: %s\n", session.AllClosed() ? "yes" : "no");

  // Local query at Club — no network access needed anymore.
  auto query = lang::ParseQuery("q(T, A) :- pick(T, A)");
  if (!query.ok()) return 1;
  NodeId club = *system->NodeByName("Club");
  auto answer = session.peer(club).LocalQuery(*query);
  if (!answer.ok()) return 1;
  std::printf("\npick(T, A) at Club after the update:\n");
  for (const rel::Tuple& t : *answer) {
    std::printf("  %s\n", t.ToString().c_str());
  }

  std::printf("\nnetwork statistics:\n%s", runtime.stats().Report().c_str());
  return 0;
}
