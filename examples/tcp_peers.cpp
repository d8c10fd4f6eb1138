// TCP peers: the paper's running example where every peer is a real network
// endpoint — one loopback listener per peer, every protocol message framed
// and sent through a TCP socket. Then churn as a connection event: one peer's
// sockets are torn down mid-life (messages die in the kernel), and it rejoins
// from its write-ahead log on a fresh port.
//
//   ./tcp_peers
#include <cstdio>
#include <filesystem>

#include "src/core/session.h"
#include "src/net/tcp_runtime.h"
#include "src/workload/scenario.h"

using namespace p2pdb;  // NOLINT

int main() {
  auto system = workload::MakeRunningExample();
  if (!system.ok()) {
    std::fprintf(stderr, "example system: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  // Every peer gets its own endpoint; the table is what a multi-process
  // deployment would exchange out of band (one "node host:port" row each).
  std::string dir =
      (std::filesystem::temp_directory_path() / "p2pdb_tcp_peers").string();
  std::filesystem::remove_all(dir);
  net::TcpRuntime runtime;
  core::Session::Options options;
  options.storage_root = dir;  // B's log goes to <dir>/peer1.
  core::Session session(*system, &runtime, options);
  std::printf("endpoint table (node host:port):\n%s\n",
              runtime.EndpointTable().c_str());

  if (Status st = session.RunDiscovery(); !st.ok()) {
    std::fprintf(stderr, "discovery failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = session.RunUpdate(); !st.ok()) {
    std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("update over sockets: all peers closed: %s\n",
              session.AllClosed() ? "yes" : "no");

  // Crash/recover peer B: attach durable storage, close its sockets, restart
  // it from its log on a fresh port, and re-converge.
  NodeId victim = *system->NodeByName("B");
  if (!session.AttachStorage(victim).ok()) return 1;
  uint16_t old_port = runtime.ListenPort(victim);
  (void)session.CrashPeer(victim);
  std::printf("\ncrashed B: listener on port %u closed, dropped so far: %llu\n",
              old_port,
              static_cast<unsigned long long>(runtime.dropped_count()));

  if (!session.RestartPeer(victim).ok()) return 1;
  std::printf("restarted B from its WAL on fresh port %u\n",
              runtime.ListenPort(victim));
  if (Status st = session.Rediscover(); !st.ok()) {
    std::fprintf(stderr, "rediscovery failed: %s\nstats:\n%s\n",
                 st.ToString().c_str(), runtime.stats().Report().c_str());
    return 1;
  }
  if (Status st = session.RunUpdate(); !st.ok()) {
    std::fprintf(stderr, "rejoin update failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("rejoined: all peers closed: %s\n",
              session.AllClosed() ? "yes" : "no");

  std::printf("\nnetwork statistics:\n%s", runtime.stats().Report().c_str());
  std::filesystem::remove_all(dir);
  return session.AllClosed() ? 0 : 1;
}
