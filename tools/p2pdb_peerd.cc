// p2pdb_peerd: one peer as one OS process. Reads a single config file (see
// src/daemon/config.h for the format), binds its fixed listen endpoint,
// recovers from its data directory when its log holds a base (re-exec after
// a crash), and serves until a kShutdown control frame or SIGTERM/SIGINT.
//
//   p2pdb_peerd --config /path/to/peer2.conf
//
// Fleets are provisioned with `p2pdb_fleetctl gen` (one config per node) and
// launched with scripts/run_fleet.sh.
#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <utility>

#include "src/daemon/config.h"
#include "src/daemon/peer_daemon.h"

namespace {

p2pdb::daemon::PeerDaemon* g_daemon = nullptr;

void HandleSignal(int) {
  // RequestStop is one write(2) to an eventfd: async-signal-safe.
  if (g_daemon != nullptr) g_daemon->RequestStop();
}

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: p2pdb_peerd --config <file>\n"
               "\n"
               "Runs one P2P database peer as a daemon process, provisioned\n"
               "entirely by its config file (identity, listen endpoint,\n"
               "system description, durable data directory, fleet endpoint\n"
               "table). Exits on SIGTERM/SIGINT or a kShutdown control\n"
               "frame; on a data_dir whose log already holds a base it\n"
               "replays that log before serving.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] != '-' && config_path.empty()) {
      config_path = arg;
    } else {
      std::fprintf(stderr, "p2pdb_peerd: unknown argument '%s'\n",
                   arg.c_str());
      Usage(stderr);
      return 2;
    }
  }
  if (config_path.empty()) {
    Usage(stderr);
    return 2;
  }

  auto config = p2pdb::daemon::PeerdConfig::Load(config_path);
  if (!config.ok()) {
    std::fprintf(stderr, "p2pdb_peerd: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  // SIGTERM/SIGINT stay blocked until the handler can reach the daemon: one
  // that arrives after the pid file is written (the daemon looks ready) but
  // before the handler is installed waits pending instead of killing the
  // process. The runtime's threads, started in Start(), inherit the mask,
  // so the handler always runs on this thread.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  auto daemon = p2pdb::daemon::PeerDaemon::Start(std::move(*config));
  if (!daemon.ok()) {
    std::fprintf(stderr, "p2pdb_peerd: %s\n",
                 daemon.status().ToString().c_str());
    return 1;
  }

  g_daemon = daemon->get();
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  pthread_sigmask(SIG_UNBLOCK, &stop_signals, nullptr);

  p2pdb::Status served = (*daemon)->Serve();
  g_daemon = nullptr;
  if (!served.ok()) {
    std::fprintf(stderr, "p2pdb_peerd: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
