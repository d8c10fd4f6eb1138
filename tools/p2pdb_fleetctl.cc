// p2pdb_fleetctl: provisions and drives fleets of p2pdb_peerd processes.
//
//   p2pdb_fleetctl gen --out DIR [--nodes N | --system FILE] [--host H]
//                      [--super-peer K] [--records R] [--seed S] [--sync full]
//       Writes DIR/fleet.p2p (the system description) and one DIR/peerN.conf
//       per node, with kernel-reserved fixed ports. Without --nodes/--system
//       the Section-2 running example is generated.
//
//   p2pdb_fleetctl drive --dir DIR [--timeout MS] [--session N] [--verify]
//                        [--no-shutdown]
//       Connects to a running fleet (launched from DIR's configs, e.g. by
//       scripts/run_fleet.sh), runs the bootstrap handshake, discovery, one
//       global update session to fixpoint, prints the per-peer statistics
//       table, and (with --verify) checks every peer's database against an
//       in-process simulation of the same system. Sends kShutdown to the
//       fleet unless --no-shutdown. A fleet left running can be driven again
//       by a later drive with a new --session: its bootstrap takes the fleet
//       over from the earlier controller. A drive whose system file differs
//       from the daemons' exits 1 at its bootstrap with the first daemon's
//       "rejected bootstrap" reason, and the fleet keeps running.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/control.h"
#include "src/core/session.h"
#include "src/daemon/config.h"
#include "src/daemon/fleet.h"
#include "src/lang/parser.h"
#include "src/lang/printer.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"
#include "src/util/file_util.h"
#include "src/workload/scenario.h"

namespace {

using p2pdb::NodeId;
using p2pdb::Result;
using p2pdb::Status;

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: p2pdb_fleetctl gen --out DIR [--nodes N | --system "
               "FILE]\n"
               "           [--host H] [--super-peer K] [--records R] [--seed "
               "S] [--sync full|nosync]\n"
               "       p2pdb_fleetctl drive --dir DIR [--timeout MS] "
               "[--session N]\n"
               "           [--verify] [--no-shutdown]\n");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "p2pdb_fleetctl: %s\n", status.ToString().c_str());
  return 1;
}

int RunGen(int argc, char** argv) {
  std::string out_dir, system_file, host = "127.0.0.1";
  size_t nodes = 0, records = 100;
  uint64_t seed = 7;
  NodeId super_peer = 0;
  bool no_sync = true;  // Fleets are experiments; opt into fsync with --sync.
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--out" && (v = value())) {
      out_dir = v;
    } else if (arg == "--nodes" && (v = value())) {
      nodes = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--system" && (v = value())) {
      system_file = v;
    } else if (arg == "--host" && (v = value())) {
      host = v;
    } else if (arg == "--super-peer" && (v = value())) {
      super_peer = static_cast<NodeId>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--records" && (v = value())) {
      records = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed" && (v = value())) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--sync" && (v = value())) {
      no_sync = (std::string(v) == "nosync");
    } else {
      std::fprintf(stderr, "p2pdb_fleetctl gen: bad argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (out_dir.empty()) {
    Usage(stderr);
    return 2;
  }

  Result<p2pdb::core::P2PSystem> system = [&] {
    if (!system_file.empty()) {
      std::string text;
      Status read = p2pdb::ReadFile(system_file, &text);
      if (!read.ok()) return Result<p2pdb::core::P2PSystem>(read);
      return p2pdb::lang::ParseSystem(text);
    }
    if (nodes == 0) return p2pdb::workload::MakeRunningExample();
    p2pdb::workload::ScenarioOptions scenario;
    scenario.topology.kind = p2pdb::workload::TopologySpec::Kind::kTree;
    scenario.topology.nodes = nodes;
    scenario.topology.seed = seed;
    scenario.records_per_node = records;
    scenario.link_overlap_prob = 0.5;
    scenario.seed = seed;
    return p2pdb::workload::BuildScenario(scenario);
  }();
  if (!system.ok()) return Fail(system.status());

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Fail(Status::Internal("cannot create " + out_dir + ": " +
                                 ec.message()));
  }
  const std::string fleet_p2p = out_dir + "/fleet.p2p";
  Status wrote = p2pdb::WriteFile(fleet_p2p, p2pdb::lang::PrintSystem(*system));
  if (!wrote.ok()) return Fail(wrote);

  auto ports = p2pdb::daemon::PickFreePorts(host, system->node_count());
  if (!ports.ok()) return Fail(ports.status());
  auto configs = p2pdb::daemon::MakeFleetConfigs(
      *system, fleet_p2p, out_dir, host, *ports, super_peer, no_sync);
  if (!configs.ok()) return Fail(configs.status());
  for (const p2pdb::daemon::PeerdConfig& cfg : *configs) {
    const std::string path =
        out_dir + "/peer" + std::to_string(cfg.node) + ".conf";
    wrote = p2pdb::WriteFile(path, cfg.ToString());
    if (!wrote.ok()) return Fail(wrote);
    std::printf("%s  node %u (%s) on %s\n", path.c_str(), cfg.node,
                cfg.name.c_str(), cfg.listen.ToString().c_str());
  }
  std::printf("%s  %zu-node system, super-peer %u\n", fleet_p2p.c_str(),
              system->node_count(), super_peer);
  return 0;
}

int RunDrive(int argc, char** argv) {
  std::string dir;
  uint64_t timeout_ms = 30'000, session = 1;
  bool verify = false, shutdown = true;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--dir" && (v = value())) {
      dir = v;
    } else if (arg == "--timeout" && (v = value())) {
      timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--session" && (v = value())) {
      session = std::strtoull(v, nullptr, 10);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--no-shutdown") {
      shutdown = false;
    } else {
      std::fprintf(stderr, "p2pdb_fleetctl drive: bad argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (dir.empty()) {
    Usage(stderr);
    return 2;
  }

  // peer0.conf carries everything the controller needs: the system file, the
  // full endpoint table, and the super-peer id (which only fleetctl reads).
  auto cfg = p2pdb::daemon::PeerdConfig::Load(dir + "/peer0.conf");
  if (!cfg.ok()) return Fail(cfg.status());
  std::string text;
  Status read = p2pdb::ReadFile(cfg->system_file, &text);
  if (!read.ok()) return Fail(read);
  auto system = p2pdb::lang::ParseSystem(text);
  if (!system.ok()) return Fail(system.status());

  p2pdb::daemon::FleetController::Options options;
  options.host = cfg->listen.host;
  options.timeout = std::chrono::milliseconds(timeout_ms);
  auto controller = p2pdb::daemon::FleetController::Connect(
      *system, cfg->peers, cfg->super_peer, options);
  if (!controller.ok()) return Fail(controller.status());
  const std::vector<NodeId> all = (*controller)->AllNodes();

  Status st = (*controller)->Bootstrap(all);
  if (!st.ok()) return Fail(st);
  std::printf("bootstrap: %zu peers accepted\n", all.size());

  st = (*controller)->StartDiscovery(all);
  if (st.ok()) st = (*controller)->AwaitDiscoveryClosed(all);
  if (!st.ok()) return Fail(st);
  std::printf("discovery: closed at every peer\n");

  st = (*controller)->StartUpdate(session);
  std::vector<p2pdb::core::wire::StatusReport> reports;
  if (st.ok()) {
    st = (*controller)->AwaitUpdateFixpoint(session, all, &reports);
  }
  if (!st.ok()) return Fail(st);

  std::printf("update session %llu reached fixpoint:\n",
              static_cast<unsigned long long>(session));
  std::vector<std::string> names;
  for (NodeId n : all) names.push_back(system->node(n).name);
  std::printf("%s", p2pdb::core::FormatStatistics(names, reports).c_str());

  int exit_code = 0;
  if (verify) {
    // The oracle: the same system run in-process on the deterministic
    // simulator. The fleet's databases must be isomorphic (equal up to a
    // renaming of labelled nulls) node by node.
    p2pdb::net::SimRuntime sim;
    p2pdb::core::Session::Options session_options;
    session_options.super_peer = cfg->super_peer;
    p2pdb::core::Session oracle(*system, &sim, session_options);
    st = oracle.RunDiscovery();
    if (st.ok()) st = oracle.RunUpdate();
    if (!st.ok()) return Fail(st);
    const std::vector<p2pdb::rel::Database> expected =
        oracle.SnapshotDatabases();
    for (NodeId n : all) {
      auto dump = (*controller)->Dump(n);
      if (!dump.ok()) return Fail(dump.status());
      if (p2pdb::rel::DatabasesIsomorphic(*dump, expected[n])) {
        std::printf("verify: node %u (%s) matches the in-process oracle\n", n,
                    system->node(n).name.c_str());
      } else {
        std::fprintf(stderr,
                     "verify: node %u (%s) DIVERGES from the oracle\n", n,
                     system->node(n).name.c_str());
        exit_code = 1;
      }
    }
  }

  if (shutdown) {
    st = (*controller)->SendShutdown(all);
    if (!st.ok()) return Fail(st);
    std::printf("shutdown sent to %zu peers\n", all.size());
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage(stderr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "gen") return RunGen(argc - 2, argv + 2);
  if (command == "drive") return RunDrive(argc - 2, argv + 2);
  if (command == "--help" || command == "-h") {
    Usage(stdout);
    return 0;
  }
  std::fprintf(stderr, "p2pdb_fleetctl: unknown command '%s'\n",
               command.c_str());
  Usage(stderr);
  return 2;
}
