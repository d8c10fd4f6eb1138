// Cross-process fleet integration: forks real p2pdb_peerd processes, drives
// them over the wire control plane (src/core/control.h) with a
// FleetController, kill -9s a non-super-peer mid-propagation, re-execs it
// from the same config file (fixed port, WAL recovery), and checks that the
// fleet's databases converge to the same global fixpoint as an in-process
// run of the same system — the acceptance path of the deployment story.
//
// The ctest registration passes --peerd $<TARGET_FILE:p2pdb_peerd>; running
// the binary by hand works with the P2PDB_PEERD environment variable. The
// process tests are skipped when neither is available.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/dependency.h"
#include "src/core/session.h"
#include "src/core/update.h"
#include "src/daemon/config.h"
#include "src/daemon/fleet.h"
#include "src/daemon/peer_daemon.h"
#include "src/lang/printer.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"
#include "src/util/file_util.h"
#include "src/workload/scenario.h"
#include "tests/codec_testing.h"

namespace p2pdb::daemon {
namespace {

std::string g_peerd_path;  // Set by main() from --peerd or P2PDB_PEERD.

std::string FreshRoot(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/p2pdb_fleet_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Forks one p2pdb_peerd on `config_path`, stdout+stderr into `log_path`.
pid_t SpawnPeerd(const std::string& config_path,
                 const std::string& log_path) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (std::freopen(log_path.c_str(), "w", stdout) == nullptr) _exit(126);
  if (::dup2(::fileno(stdout), ::fileno(stderr)) < 0) _exit(126);
  ::execl(g_peerd_path.c_str(), g_peerd_path.c_str(), "--config",
          config_path.c_str(), static_cast<char*>(nullptr));
  _exit(127);
}

/// The daemon writes its pid file only after its listener is bound and the
/// endpoint table is installed, so "pid file holds `pid`" doubles as the
/// readiness barrier for both first boots and re-execs.
bool AwaitPidFile(const std::string& path, pid_t pid,
                  std::chrono::seconds timeout = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    pid_t got = -1;
    if (in >> got && got == pid) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// Reaps `pid`, polling so a hung daemon cannot hang the test.
bool AwaitExit(pid_t pid, int* exit_status,
               std::chrono::seconds timeout = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) {
      *exit_status = status;
      return true;
    }
    if (got < 0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// The p2pdb_peerd children of one test, one slot per node. Every ASSERT
/// after a spawn returns early, so the destructor SIGKILLs and reaps each
/// child still running: a failed run leaves no daemon behind. A reaped
/// child's slot is cleared first, since its pid may be reused.
class Daemons {
 public:
  Daemons() = default;
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;
  ~Daemons() {
    for (pid_t pid : pids_) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  /// Forks a daemon into the empty slot `node`; returns its pid (<= 0 when
  /// the fork failed).
  pid_t Spawn(size_t node, const std::string& config_path,
              const std::string& log_path) {
    if (pids_.size() <= node) pids_.resize(node + 1, -1);
    pids_[node] = SpawnPeerd(config_path, log_path);
    return pids_[node];
  }

  pid_t pid(size_t node) const { return pids_[node]; }

  /// Reaps the daemon in slot `node` (see AwaitExit) and clears the slot.
  bool Reap(size_t node, int* exit_status) {
    if (!AwaitExit(pids_[node], exit_status)) return false;
    pids_[node] = -1;
    return true;
  }

 private:
  std::vector<pid_t> pids_;
};

/// A config that sets every field.
PeerdConfig FullConfig() {
  PeerdConfig config;
  config.node = 2;
  config.name = "C";
  config.listen = {"127.0.0.1", 7102};
  config.system_file = "/tmp/fleet.p2p";
  config.data_dir = "/tmp/peer2";
  config.pid_file = "/tmp/peer2.pid";
  config.obs_json = "/tmp/peer2.obs.json";
  config.super_peer = 1;
  config.no_sync = true;
  config.peers = {{0, "127.0.0.1", 7100},
                  {1, "127.0.0.1", 7101},
                  {2, "127.0.0.1", 7102}};
  return config;
}

TEST(PeerdConfigTest, RoundTripsThroughToString) {
  const PeerdConfig config = FullConfig();
  auto parsed = PeerdConfig::Parse(config.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->node, config.node);
  EXPECT_EQ(parsed->name, config.name);
  EXPECT_EQ(parsed->listen.host, config.listen.host);
  EXPECT_EQ(parsed->listen.port, config.listen.port);
  EXPECT_EQ(parsed->system_file, config.system_file);
  EXPECT_EQ(parsed->data_dir, config.data_dir);
  EXPECT_EQ(parsed->pid_file, config.pid_file);
  EXPECT_EQ(parsed->obs_json, config.obs_json);
  EXPECT_EQ(parsed->super_peer, config.super_peer);
  EXPECT_EQ(parsed->no_sync, config.no_sync);
  EXPECT_EQ(parsed->peers, config.peers);
}

TEST(PeerdConfigTest, RejectsMalformedFiles) {
  // Missing required keys.
  EXPECT_FALSE(PeerdConfig::Parse("node 0\nname A\n").ok());
  // Bad node id, bad endpoint, trailing garbage, unknown key: each rejected
  // with the offending line number in the message.
  auto bad_id = PeerdConfig::Parse(
      "node x\nname A\nlisten 127.0.0.1:1\nsystem s.p2p\n");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_NE(bad_id.status().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(PeerdConfig::Parse(
                   "node 0\nname A\nlisten nonsense\nsystem s.p2p\n")
                   .ok());
  EXPECT_FALSE(PeerdConfig::Parse(
                   "node 0 extra\nname A\nlisten 127.0.0.1:1\nsystem s\n")
                   .ok());
  EXPECT_FALSE(PeerdConfig::Parse(
                   "node 0\nname A\nlisten 127.0.0.1:1\nsystem s\nwat 1\n")
                   .ok());
}

// Seeded mutants of a full config file: each is rejected, or parses to a
// config whose file parses again to the same text.
TEST(PeerdConfigTest, MutantsParseWholeOrNotAtAll) {
  const std::string text = FullConfig().ToString();
  testing_codec::ExpectMutantsDecodeWholeOrNotAtAll(
      std::vector<uint8_t>(text.begin(), text.end()),
      [](const std::vector<uint8_t>& mutant)
          -> std::optional<std::vector<uint8_t>> {
        auto config =
            PeerdConfig::Parse(std::string(mutant.begin(), mutant.end()));
        if (!config.ok()) return std::nullopt;
        const std::string again = config->ToString();
        return std::vector<uint8_t>(again.begin(), again.end());
      },
      200, 23);
}

TEST(PeerDaemonTest, StartFailsWhenThePidFileIsNotWritten) {
  // /dev/full opens for writing and fails every write with ENOSPC: a daemon
  // whose pid file was lost must not report that it started.
  const std::string root = FreshRoot("pid_full");
  PeerdConfig config;
  config.node = 0;
  config.name = "A";
  config.listen = {"127.0.0.1", 0};
  config.system_file = root + "/system.p2p";
  config.pid_file = "/dev/full";
  ASSERT_TRUE(
      WriteFile(config.system_file, std::string("node A { rel a(x); }\n"))
          .ok());
  auto daemon = PeerDaemon::Start(config);
  ASSERT_FALSE(daemon.ok()) << "Start succeeded without its pid file";
  EXPECT_NE(daemon.status().message().find("/dev/full"), std::string::npos)
      << daemon.status().ToString();
}

TEST(FleetHelpersTest, PickFreePortsReturnsDistinctPorts) {
  auto ports = PickFreePorts("127.0.0.1", 8);
  ASSERT_TRUE(ports.ok()) << ports.status().ToString();
  ASSERT_EQ(ports->size(), 8u);
  std::set<uint16_t> distinct(ports->begin(), ports->end());
  EXPECT_EQ(distinct.size(), 8u);
  for (uint16_t port : *ports) EXPECT_GT(port, 0);
}

/// One running fleet under test: a tree-shaped system, one p2pdb_peerd per
/// node, and the controller driving them (super-peer 0).
struct Fleet {
  std::string root;
  core::P2PSystem system;
  std::vector<PeerdConfig> configs;
  std::vector<std::string> config_paths;
  Daemons daemons;
  std::unique_ptr<FleetController> controller;
  std::vector<NodeId> all;
};

/// Writes a `nodes`-node tree system and its configs under a fresh root,
/// spawns one daemon per node, waits until each is ready, and connects a
/// controller whose every wait is bounded by `timeout`.
void LaunchFleet(const std::string& name, size_t nodes,
                 std::chrono::milliseconds timeout, Fleet* fleet) {
  fleet->root = FreshRoot(name);
  workload::ScenarioOptions scenario;
  scenario.topology.kind = workload::TopologySpec::Kind::kTree;
  scenario.topology.nodes = nodes;
  scenario.records_per_node = 150;
  scenario.link_overlap_prob = 0.5;
  auto system = workload::BuildScenario(scenario);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  fleet->system = std::move(*system);

  const std::string system_file = fleet->root + "/fleet.p2p";
  ASSERT_TRUE(WriteFile(system_file, lang::PrintSystem(fleet->system)).ok());
  auto ports = PickFreePorts("127.0.0.1", nodes);
  ASSERT_TRUE(ports.ok()) << ports.status().ToString();
  auto configs = MakeFleetConfigs(fleet->system, system_file, fleet->root,
                                  "127.0.0.1", *ports, /*super_peer=*/0,
                                  /*no_sync=*/true);
  ASSERT_TRUE(configs.ok()) << configs.status().ToString();
  fleet->configs = std::move(*configs);

  for (const PeerdConfig& cfg : fleet->configs) {
    const std::string base = fleet->root + "/peer" + std::to_string(cfg.node);
    ASSERT_TRUE(WriteFile(base + ".conf", cfg.ToString()).ok());
    fleet->config_paths.push_back(base + ".conf");
    ASSERT_GT(fleet->daemons.Spawn(cfg.node, base + ".conf", base + ".log"),
              0);
  }
  for (const PeerdConfig& cfg : fleet->configs) {
    ASSERT_TRUE(AwaitPidFile(cfg.pid_file, fleet->daemons.pid(cfg.node)))
        << "peer " << cfg.node << " never became ready";
  }

  FleetController::Options options;
  options.timeout = timeout;
  auto controller = FleetController::Connect(
      fleet->system, fleet->configs[0].peers, /*super_peer=*/0, options);
  ASSERT_TRUE(controller.ok()) << controller.status().ToString();
  fleet->controller = std::move(*controller);
  fleet->all = fleet->controller->AllNodes();
}

/// Every participant of the update (the super-peer and the nodes reachable
/// from it) reported its update phase closed.
void ExpectParticipantsClosed(
    const core::P2PSystem& system,
    const std::vector<core::wire::StatusReport>& rows) {
  std::set<NodeId> participants =
      core::DependencyGraph::FromRules(system.rules()).ReachableFrom(0);
  participants.insert(0);
  const auto closed =
      static_cast<uint8_t>(core::UpdateEngine::State::kClosed);
  for (const core::wire::StatusReport& row : rows) {
    if (participants.count(row.node) == 0) continue;
    EXPECT_EQ(row.state_update, closed)
        << "participant " << row.node << " answered before closing";
  }
}

/// The parity oracle: the same system run in one process on the
/// deterministic simulator. Every fleet database must match up to null
/// renaming.
void ExpectFleetMatchesOracle(Fleet& fleet) {
  net::SimRuntime sim;
  core::Session oracle(fleet.system, &sim);
  ASSERT_TRUE(oracle.RunDiscovery().ok());
  ASSERT_TRUE(oracle.RunUpdate().ok());
  const std::vector<rel::Database> expected = oracle.SnapshotDatabases();
  for (NodeId n : fleet.all) {
    auto dump = fleet.controller->Dump(n);
    ASSERT_TRUE(dump.ok()) << dump.status().ToString();
    EXPECT_TRUE(rel::DatabasesIsomorphic(*dump, expected[n]))
        << "node " << n << " diverged from the in-process fixpoint";
  }
}

/// Graceful teardown: every daemon exits cleanly on the kShutdown frame.
void ShutDownFleet(Fleet& fleet) {
  ASSERT_TRUE(fleet.controller->SendShutdown(fleet.all).ok());
  for (NodeId n : fleet.all) {
    int status = 0;
    ASSERT_TRUE(fleet.daemons.Reap(n, &status)) << "peer " << n << " hung";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "peer " << n << " exited abnormally";
  }
}

// The acceptance path: 4 peerd processes converge to the in-process
// fixpoint, survive kill -9 of a non-super-peer mid-propagation, and
// re-converge after the victim is re-exec'ed from the same config file.
TEST(FleetTest, FleetConvergesAndSurvivesKillNineReExec) {
  if (g_peerd_path.empty()) {
    GTEST_SKIP() << "p2pdb_peerd path not provided (--peerd or P2PDB_PEERD)";
  }
  Fleet fleet;
  ASSERT_NO_FATAL_FAILURE(
      LaunchFleet("kill9", 4, std::chrono::seconds(60), &fleet));
  FleetController& controller = *fleet.controller;
  const std::vector<NodeId>& all = fleet.all;

  ASSERT_TRUE(controller.Bootstrap(all).ok());
  ASSERT_TRUE(controller.StartDiscovery(all).ok());
  ASSERT_TRUE(controller.AwaitDiscoveryClosed(all).ok());

  // Start the global update and kill a non-super-peer immediately: SIGKILL,
  // no shutdown path, in-flight frames die with its sockets.
  ASSERT_TRUE(controller.StartUpdate(1).ok());
  const NodeId victim = 1;
  ASSERT_EQ(::kill(fleet.daemons.pid(victim), SIGKILL), 0);
  int status = 0;
  ASSERT_TRUE(fleet.daemons.Reap(victim, &status));
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Re-exec at once from the SAME config file: same node id, same fixed
  // port (the other daemons' endpoint tables stay valid), recovery from
  // its log before the listener accepts a frame. Session 1 need
  // not drain first: on every surviving link, per-link FIFO order puts any
  // session-1 message ahead of session 2's, and the victim's old sockets
  // died with it.
  ASSERT_GT(fleet.daemons.Spawn(victim, fleet.config_paths[victim],
                                fleet.root + "/peer1.reexec.log"),
            0);
  ASSERT_TRUE(AwaitPidFile(fleet.configs[victim].pid_file,
                           fleet.daemons.pid(victim)))
      << "re-exec'ed peer never became ready";

  // Rejoin: re-bootstrap the fresh process (installs the controller's reply
  // route), re-run discovery everywhere, refresh SCC views behind a status
  // barrier, then drive a fresh update session — monotone set-union
  // semantics make the second session idempotent on the survivors.
  ASSERT_TRUE(controller.Bootstrap({victim}).ok());
  ASSERT_TRUE(controller.StartDiscovery(all).ok());
  ASSERT_TRUE(controller.AwaitDiscoveryClosed(all).ok());
  ASSERT_TRUE(controller.RefreshScc(all).ok());
  ASSERT_TRUE(controller.StartUpdate(2).ok());
  std::vector<core::wire::StatusReport> reports;
  Status fixpoint = controller.AwaitUpdateFixpoint(2, all, &reports);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.ToString();
  ASSERT_EQ(reports.size(), all.size());
  ExpectParticipantsClosed(fleet.system, reports);

  ASSERT_NO_FATAL_FAILURE(ExpectFleetMatchesOracle(fleet));
  ASSERT_NO_FATAL_FAILURE(ShutDownFleet(fleet));
}

// The fixpoint verdict is exact, not guessed from unchanged statistics: a
// session that never started never reaches fixpoint, however quiet the
// fleet is, and a session that has reached it answers at once.
TEST(FleetTest, FixpointWaitNamesItsSession) {
  if (g_peerd_path.empty()) {
    GTEST_SKIP() << "p2pdb_peerd path not provided (--peerd or P2PDB_PEERD)";
  }
  Fleet fleet;
  ASSERT_NO_FATAL_FAILURE(
      LaunchFleet("session", 3, std::chrono::seconds(2), &fleet));
  FleetController& controller = *fleet.controller;
  const std::vector<NodeId>& all = fleet.all;

  ASSERT_TRUE(controller.Bootstrap(all).ok());
  ASSERT_TRUE(controller.StartDiscovery(all).ok());
  ASSERT_TRUE(controller.AwaitDiscoveryClosed(all).ok());
  ASSERT_TRUE(controller.StartUpdate(1).ok());
  std::vector<core::wire::StatusReport> reports;
  Status fixpoint = controller.AwaitUpdateFixpoint(1, all, &reports);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.ToString();
  ExpectParticipantsClosed(fleet.system, reports);

  // Every peer is closed and idle, but in session 1: a wait for session 7
  // must run into the controller's timeout.
  Status never = controller.AwaitUpdateFixpoint(7, all, nullptr);
  EXPECT_FALSE(never.ok());
  EXPECT_NE(never.message().find("session 7"), std::string::npos)
      << never.ToString();

  // Session 1's closure is stable: asking again is answered at once.
  auto start = std::chrono::steady_clock::now();
  reports.clear();
  fixpoint = controller.AwaitUpdateFixpoint(1, all, &reports);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  ASSERT_EQ(reports.size(), all.size());
  ExpectParticipantsClosed(fleet.system, reports);

  ASSERT_NO_FATAL_FAILURE(ExpectFleetMatchesOracle(fleet));
  ASSERT_NO_FATAL_FAILURE(ShutDownFleet(fleet));
}

// SIGTERM is a clean stop: the handler wakes Serve(), which removes the pid
// file, and the process exits 0. Serve() blocks without a timeout, so a
// stop that failed to wake it would hang here until the reap gives up.
TEST(FleetTest, SigtermStopsDaemonCleanly) {
  if (g_peerd_path.empty()) {
    GTEST_SKIP() << "p2pdb_peerd path not provided (--peerd or P2PDB_PEERD)";
  }
  Fleet fleet;
  ASSERT_NO_FATAL_FAILURE(
      LaunchFleet("sigterm", 2, std::chrono::seconds(10), &fleet));
  for (NodeId n : fleet.all) {
    ASSERT_EQ(::kill(fleet.daemons.pid(n), SIGTERM), 0);
    int status = 0;
    ASSERT_TRUE(fleet.daemons.Reap(n, &status)) << "peer " << n << " hung";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "peer " << n << " exited abnormally";
    EXPECT_FALSE(std::filesystem::exists(fleet.configs[n].pid_file))
        << "peer " << n << " left its pid file behind";
  }
}

}  // namespace
}  // namespace p2pdb::daemon

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (const char* env = std::getenv("P2PDB_PEERD")) {
    p2pdb::daemon::g_peerd_path = env;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--peerd" && i + 1 < argc) {
      p2pdb::daemon::g_peerd_path = argv[i + 1];
    }
  }
  return RUN_ALL_TESTS();
}
