// Crash-recovery integration on the deterministic sim runtime: a peer with
// durable storage crashes mid-propagation, loses its volatile state and every
// in-flight message, restarts by replaying its log, rejoins through the
// ordinary discovery/session path, and the network re-converges to the same
// global fix-point a never-crashed run reaches (up to renaming of labeled
// nulls). A restarted peer's relations hold their entries in the logged
// order, and a damaged log fails recovery whole.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>

#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"
#include "src/storage/storage_manager.h"
#include "src/util/log_capture.h"
#include "src/workload/scenario.h"
#include "tests/codec_testing.h"

namespace p2pdb::core {
namespace {

std::string FreshRoot(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/p2pdb_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Session options wired to per-node data directories under `root`: crash
/// and restart reopen the same directory, as a restarted peer process would.
Session::Options DurableOptions(const std::string& root) {
  Session::Options options;
  options.storage_root = root;
  return options;
}

/// Every relation's entries in log order.
std::map<std::string, std::vector<rel::Tuple>> Logs(const rel::Database& db) {
  std::map<std::string, std::vector<rel::Tuple>> out;
  for (const rel::Relation& relation : db.relations()) {
    const rel::LogView log = relation.View();
    std::vector<rel::Tuple>& entries = out[relation.name()];
    for (size_t i = 0; i < log.size(); ++i) entries.emplace_back(log.at(i));
  }
  return out;
}

/// Runs discovery + one full update with no churn and returns the final
/// per-node databases.
std::vector<rel::Database> BaselineRun(const P2PSystem& system) {
  net::SimRuntime rt;
  Session session(system, &rt);
  EXPECT_TRUE(session.RunDiscovery().ok());
  EXPECT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
  return session.SnapshotDatabases();
}

TEST(RecoveryTest, CrashedPeerRecoversItsExactPreCrashDatabase) {
  // Low-level primitives: crash a peer mid-propagation and check that
  // restart-from-storage reproduces its database bit for bit (the WAL logged
  // every applied delta) while in-flight messages to it are dropped.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  auto victim = system->NodeByName("B");
  ASSERT_TRUE(victim.ok());
  std::string root = FreshRoot("exact");

  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.AttachStorage(*victim).ok());

  session.peer(0).StartUpdate(77);
  ASSERT_TRUE(rt.RunUntil(rt.NowMicros() + 3'000).ok());
  rel::Database pre_crash = session.peer(*victim).db();
  ASSERT_GT(pre_crash.TotalTuples(), 0u);

  ScopedLogCapture quiet;  // Dropped-message warnings are expected.
  ASSERT_TRUE(session.CrashPeer(*victim).ok());
  EXPECT_FALSE(session.IsAlive(*victim));
  ASSERT_TRUE(rt.Run().ok());  // Drain; deliveries to the victim are lost.

  ASSERT_TRUE(session.RestartPeer(*victim).ok());
  ASSERT_TRUE(session.IsAlive(*victim));
  EXPECT_TRUE(session.peer(*victim).db() == pre_crash);

  // Rejoin via the existing discovery/session path and close globally.
  ASSERT_TRUE(session.Rediscover().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
}

TEST(RecoveryTest, RunningExampleChurnReachesNeverCrashedFixpoint) {
  // The acceptance scenario: crash B mid-propagation of the Section-2
  // running example, restart it from its log, and compare the
  // re-converged network against a never-crashed run, node by node.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  std::vector<rel::Database> baseline = BaselineRun(*system);

  std::string root = FreshRoot("running_example");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());

  auto victim = system->NodeByName("B");
  ASSERT_TRUE(victim.ok());
  ChurnScript churn = {ChurnEvent::Crash(3'000, *victim),
                       ChurnEvent::Restart(9'000, *victim)};
  ScopedLogCapture quiet;
  ASSERT_TRUE(session.RunUpdateWithChurn(churn).ok());
  ASSERT_TRUE(session.AllClosed());

  for (size_t n = 0; n < session.peer_count(); ++n) {
    EXPECT_TRUE(
        rel::DatabasesIsomorphic(session.peer(n).db(), baseline[n]))
        << "node " << n << " diverged from the never-crashed run";
  }
}

TEST(RecoveryTest, GeneratedScenarioWithNullsSurvivesMultiPeerChurn) {
  // Heterogeneous-schema translation rules mint labeled nulls; two peers
  // crash (staggered) and restart. The rejoined network must match the
  // never-crashed fix-point up to null renaming.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 8;
  options.records_per_node = 6;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());
  std::vector<rel::Database> baseline = BaselineRun(*system);

  workload::ChurnPlanOptions plan;
  plan.crashes = 2;
  plan.crash_at_micros = 2'500;
  plan.downtime_micros = 6'000;
  auto churn = workload::PlanCrashRestart(*system, /*super_peer=*/0, plan);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  ASSERT_TRUE(ValidateChurnScript(*churn, system->node_count()).ok());

  std::string root = FreshRoot("generated");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());
  ScopedLogCapture quiet;
  ASSERT_TRUE(session.RunUpdateWithChurn(*churn).ok());
  ASSERT_TRUE(session.AllClosed());
  // The crashes landed mid-propagation: messages to the dead peers were lost.
  EXPECT_GT(rt.dropped_count(), 0u);

  for (size_t n = 0; n < session.peer_count(); ++n) {
    EXPECT_TRUE(rel::DatabasesIsomorphic(session.peer(n).db(), baseline[n]))
        << "node " << n;
  }
}

TEST(RecoveryTest, ChurnMatchesGlobalFixpointBaseline) {
  // Same churn run, judged against the independent global (centralized)
  // fix-point computation instead of a second distributed run.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kLayeredDag;
  options.topology.nodes = 9;
  options.topology.layers = 3;
  options.records_per_node = 5;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());

  auto churn = workload::PlanCrashRestart(*system, /*super_peer=*/0,
                                          workload::ChurnPlanOptions{});
  ASSERT_TRUE(churn.ok());

  std::string root = FreshRoot("global_baseline");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());
  ScopedLogCapture quiet;
  ASSERT_TRUE(session.RunUpdateWithChurn(*churn).ok());
  ASSERT_TRUE(session.AllClosed());

  auto global = ComputeGlobalFixpoint(*system, rel::ChaseOptions{});
  ASSERT_TRUE(global.ok());
  for (NodeId n : session.Participants()) {
    EXPECT_TRUE(rel::DatabasesCertainEqual(session.peer(n).db(),
                                           global->node_dbs[n]))
        << "node " << n;
  }
}

TEST(RecoveryTest, CrashAfterCompletionRejoinsWithoutRingLivelock) {
  // A peer that crashes AFTER its session completed restarts idle; the
  // rediscovery wave then restarts the SCC token ring against a member that
  // is not ready and never will be within this session. Depending on the
  // interleaving, the dead peer's lost counters leave the ring sums equal
  // (seen on the TCP runtime, where this livelocked: millions of token
  // passes) or unequal; both must pause and re-converge via the next
  // session. This pins the scenario on the deterministic runtime; the TCP
  // churn tests cover the concurrent interleavings.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  std::vector<rel::Database> baseline = BaselineRun(*system);

  std::string root = FreshRoot("post_completion");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());

  auto victim = system->NodeByName("B");
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(session.AttachStorage(*victim).ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());  // Crash only after full completion.

  ScopedLogCapture quiet;
  ASSERT_TRUE(session.CrashPeer(*victim).ok());
  ASSERT_TRUE(session.RestartPeer(*victim).ok());
  ASSERT_TRUE(session.Rediscover().ok());  // A ring livelock would hang here.
  ASSERT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
  for (size_t n = 0; n < session.peer_count(); ++n) {
    EXPECT_TRUE(rel::DatabasesIsomorphic(session.peer(n).db(), baseline[n]))
        << "node " << n;
  }
  std::filesystem::remove_all(root);
}

TEST(RecoveryTest, MidSessionRuleChangesReplayFromWal) {
  // Durable rule state: addLink/deleteLink applied mid-session are logged to
  // the head's WAL and replayed by Recover(), so a restarted head has the
  // changed rule set without the change driver re-delivering notifications.
  auto system = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); fact b("b1"); }
node D { rel d(x); fact d("d1"); }
rule r1: B.b(X) => A.a(X);
)");
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  NodeId head = *system->NodeByName("A");

  std::string root = FreshRoot("rules");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.AttachStorage(head).ok());

  // addLink r2 (A additionally pulls from D), then deleteLink r1, both
  // arriving while the update session runs.
  CoordinationRule r2;
  r2.id = "r2";
  r2.head_node = head;
  rel::Atom head_atom;
  head_atom.relation = "a";
  head_atom.terms = {rel::Term::Var("X")};
  r2.head_atoms = {head_atom};
  CoordinationRule::BodyPart part;
  part.node = *system->NodeByName("D");
  rel::Atom body_atom;
  body_atom.relation = "d";
  body_atom.terms = {rel::Term::Var("X")};
  part.atoms = {body_atom};
  r2.body = {part};
  // A churny history: r2 added, removed, re-added; r1 (initial) deleted.
  session.ScheduleChange(AtomicChange::Add(1'500, r2));
  session.ScheduleChange(AtomicChange::Delete(2'000, head, "r2"));
  session.ScheduleChange(AtomicChange::Add(2'200, r2));
  session.ScheduleChange(AtomicChange::Delete(2'500, head, "r1"));
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_EQ(session.peer(head).rules().size(), 1u);
  ASSERT_EQ(session.peer(head).rules()[0].id, "r2");

  ScopedLogCapture quiet;
  ASSERT_TRUE(session.CrashPeer(head).ok());
  ASSERT_TRUE(rt.Run().ok());
  ASSERT_TRUE(session.RestartPeer(head).ok());

  // The initial rule set would be {r1}; the WAL replay must re-apply the add
  // of r2 and the delete of r1.
  const std::vector<CoordinationRule>& rules = session.peer(head).rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].id, "r2");

  // The durable history holds all four changes; replaying them in order
  // gives the rule set above.
  {
    storage::StorageOptions probe;
    probe.dir = storage::PeerDir(root, head);
    auto manager = storage::StorageManager::Open(probe);
    ASSERT_TRUE(manager.ok());
    storage::RecoveryInfo info;
    ASSERT_TRUE((*manager)->Recover(&info).ok());
    EXPECT_EQ(info.rule_changes.size(), 4u);
  }

  // A second crash/restart cycle replays the same history identically.
  ASSERT_TRUE(session.CrashPeer(head).ok());
  ASSERT_TRUE(session.RestartPeer(head).ok());
  ASSERT_EQ(session.peer(head).rules().size(), 1u);
  EXPECT_EQ(session.peer(head).rules()[0].id, "r2");

  // And the rejoined network still converges with the changed topology.
  ASSERT_TRUE(session.Rediscover().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
  std::filesystem::remove_all(root);
}

TEST(RecoveryTest, RestartedPeersKeepTheirLogOrder) {
  // Replay appends each logged entry in turn to a fresh relation, so every
  // restarted peer's relations list their entries in the crashed peer's
  // order, not merely the same set.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 7;
  options.records_per_node = 6;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());

  std::string root = FreshRoot("log_order");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());
  for (NodeId n = 0; n < session.peer_count(); ++n) {
    ASSERT_TRUE(session.AttachStorage(n).ok());
  }
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());

  ScopedLogCapture quiet;
  for (NodeId n = 0; n < session.peer_count(); ++n) {
    const auto before = Logs(session.peer(n).db());
    ASSERT_TRUE(session.CrashPeer(n).ok());
    ASSERT_TRUE(session.RestartPeer(n).ok());
    EXPECT_EQ(Logs(session.peer(n).db()), before) << "node " << n;
  }
  std::filesystem::remove_all(root);
}

TEST(RecoveryTest, RestartLogsNothingTwice) {
  // Attach, update, crash/restart, then a second update that brings one new
  // tuple: the log's base and delta records hold each tuple exactly once.
  auto system = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); fact b("b1"); }
rule r1: B.b(X) => A.a(X);
)");
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  NodeId head = *system->NodeByName("A");
  NodeId source = *system->NodeByName("B");

  std::string root = FreshRoot("logged_once");
  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.AttachStorage(head).ok());
  ASSERT_TRUE(session.RunUpdate().ok());

  ScopedLogCapture quiet;
  ASSERT_TRUE(session.CrashPeer(head).ok());
  ASSERT_TRUE(session.RestartPeer(head).ok());
  rel::Database& source_db = session.peer(source).db();
  ASSERT_TRUE(source_db.Insert("b", rel::Tuple({rel::Value::Str("b2")})).ok());
  ASSERT_TRUE(session.Rediscover().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());

  const rel::Database& live = session.peer(head).db();
  ASSERT_EQ(live.TotalTuples(), 2u);
  storage::StorageOptions probe;
  probe.dir = storage::PeerDir(root, head);
  auto manager = storage::StorageManager::Open(probe);
  ASSERT_TRUE(manager.ok());
  storage::RecoveryInfo info;
  auto logged = (*manager)->Recover(&info);
  ASSERT_TRUE(logged.ok()) << logged.status().ToString();
  EXPECT_EQ(info.tuples_recovered, live.TotalTuples());
  EXPECT_EQ(Logs(*logged), Logs(live));
  std::filesystem::remove_all(root);
}

TEST(RecoveryTest, DamagedRecordFailsRecoveryWhole) {
  // Every truncation of a base, a delta and a rule-change payload, and a
  // flip of the byte that selects how the rest decodes, each re-framed with
  // its length and CRC recomputed so that only the decoders can notice.
  // Recovery fails, and the restarting peer keeps its empty database and
  // initial rules.
  const std::string root = FreshRoot("damaged");
  net::SimRuntime rt;
  CoordinationRule r1;
  r1.id = "r1";
  r1.head_node = 0;
  auto open = [](const std::string& dir) {
    storage::StorageOptions options;
    options.dir = dir;
    options.sync = storage::SyncMode::kNoSync;
    return storage::StorageManager::Open(options);
  };
  {
    rel::Database db;
    ASSERT_TRUE(db.CreateRelation(rel::RelationSchema("a", {"x"})).ok());
    ASSERT_TRUE(db.Insert("a", rel::Tuple({rel::Value::Str("seed")})).ok());
    Peer peer(0, "A", std::move(db), &rt);
    auto manager = open(root + "/intact");
    ASSERT_TRUE(manager.ok());
    ASSERT_TRUE(peer.AttachStorage(std::move(*manager)).ok());
    ASSERT_TRUE(peer.db().Insert("a", rel::Tuple({rel::Value::Str("x")})).ok());
    peer.OnDeltaApplied({1});  // Relation a (id 0) grew past entry 1.
    peer.LogRuleChange(wire::RuleChangeRecord::Delete("r1"));
  }
  auto read = storage::ReadWalFile(root + "/intact/wal.log");
  ASSERT_TRUE(read.ok());
  using Records = std::vector<std::vector<uint8_t>>;
  const Records intact = testing_codec::Copies(read->records);
  ASSERT_EQ(intact.size(), 3u);  // Base, delta, rule change.

  // Recovers a fresh peer from `records`; on success, copies its database
  // into `*recovered` when given.
  auto recover = [&](const Records& records,
                     rel::Database* recovered = nullptr) -> Status {
    const std::string dir = root + "/damaged";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      auto wal = storage::WalWriter::Open(dir + "/wal.log",
                                          storage::SyncMode::kNoSync);
      EXPECT_TRUE(wal.ok());
      for (const std::vector<uint8_t>& payload : records) {
        EXPECT_TRUE((*wal)->Append(payload).ok());
      }
    }
    Peer peer(0, "A", rel::Database(), &rt);
    EXPECT_TRUE(peer.AddInitialRule(r1).ok());
    auto manager = open(dir);
    EXPECT_TRUE(manager.ok());
    EXPECT_TRUE(peer.AttachStorage(std::move(*manager)).ok());
    auto info = peer.Recover();
    if (!info.ok()) {
      EXPECT_TRUE(peer.db().relations().empty());
      EXPECT_EQ(peer.rules().size(), 1u);
      return info.status();
    }
    if (recovered != nullptr) *recovered = peer.db();
    return Status::OK();
  };

  ASSERT_TRUE(recover(intact).ok());
  for (size_t i = 0; i < intact.size(); ++i) {
    for (size_t length = 0; length < intact[i].size(); ++length) {
      Records records = intact;
      records[i].resize(length);
      EXPECT_FALSE(recover(records).ok())
          << "record " << i << " cut to " << length << " bytes";
    }
    // The record kind, or for a rule change the kind inside its body.
    Records records = intact;
    records[i][i == 2 ? 1 : 0] ^= 0xff;
    EXPECT_FALSE(recover(records).ok()) << "record " << i << " flipped";
  }

  // The log a recovered peer stands for: the base a fresh manager writes for
  // its database (which folds the deltas in), then each rule-change record
  // (kind 2) re-encoded. nullopt when recovery fails.
  auto relog = [&](const Records& records) -> std::optional<Records> {
    rel::Database db;
    if (!recover(records, &db).ok()) return std::nullopt;
    const std::string dir = root + "/relog";
    std::filesystem::remove_all(dir);
    {
      auto manager = open(dir);
      EXPECT_TRUE(manager.ok());
      EXPECT_TRUE((*manager)->EnsureBase(db).ok());
    }
    auto wal = storage::ReadWalFile(dir + "/wal.log");
    if (!wal.ok() || wal->records.size() != 1) {
      ADD_FAILURE() << "no base written for the recovered database";
      return std::nullopt;
    }
    Records out = testing_codec::Copies(wal->records);
    for (const std::vector<uint8_t>& record : records) {
      if (record.empty() || record[0] != 2) continue;
      auto change = wire::RuleChangeRecord::Decode(
          ByteView(record.data() + 1, record.size() - 1));
      if (!change.ok()) {
        ADD_FAILURE() << "recovery accepted an undecodable rule change";
        return std::nullopt;
      }
      std::vector<uint8_t> encoded = change->Encode();
      encoded.insert(encoded.begin(), 2);
      out.push_back(std::move(encoded));
    }
    return out;
  };
  // Seeded mutants of each record, re-framed the same way: each fails
  // recovery whole (checked inside `recover`), or recovers to a state whose
  // own log recovers again to the same log.
  for (size_t i = 0; i < intact.size(); ++i) {
    size_t m = 0;
    for (const std::vector<uint8_t>& mutant :
         testing_codec::Mutants(intact[i], 40, 21 + i)) {
      SCOPED_TRACE("record " + std::to_string(i) + " mutant " +
                   std::to_string(m++) + ": " + testing_codec::Hex(mutant));
      Records records = intact;
      records[i] = mutant;
      std::optional<Records> once = relog(records);
      if (!once.has_value()) continue;
      std::optional<Records> twice = relog(*once);
      ASSERT_TRUE(twice.has_value());
      EXPECT_EQ(*twice, *once);
    }
  }
  std::filesystem::remove_all(root);
}

TEST(RecoveryTest, RestartWithoutPriorCrashIsRejected) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  std::string root = FreshRoot("guards");
  Session session(*system, &rt, DurableOptions(root));
  EXPECT_FALSE(session.RestartPeer(1).ok());
  EXPECT_FALSE(session.CrashPeer(99).ok());

  ChurnScript bad = {ChurnEvent::Restart(1'000, 1)};
  EXPECT_FALSE(session.RunUpdateWithChurn(bad).ok());

  // A purely volatile session (no Options::storage_root) cannot attach or
  // restart at all.
  net::SimRuntime volatile_rt;
  Session volatile_session(*system, &volatile_rt);
  EXPECT_FALSE(volatile_session.AttachStorage(1).ok());
}

TEST(RecoveryTest, StoreThatCannotOpenFailsAttachAndRestart) {
  // The root is a regular file, so no node directory can be made under it:
  // AttachStorage and RestartPeer return the store's own error.
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  const std::string root = FreshRoot("unopenable");
  std::FILE* file = std::fopen(root.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  storage::StorageOptions node;
  node.dir = storage::PeerDir(root, 1);
  const Status cannot_open = storage::StorageManager::Open(node).status();
  ASSERT_FALSE(cannot_open.ok());

  net::SimRuntime rt;
  Session session(*system, &rt, DurableOptions(root));
  EXPECT_EQ(session.AttachStorage(1).ToString(), cannot_open.ToString());
  ASSERT_TRUE(session.CrashPeer(1).ok());
  EXPECT_EQ(session.RestartPeer(1).ToString(), cannot_open.ToString());
  std::filesystem::remove(root);
}

TEST(RecoveryTest, ZeroDowntimePlanKeepsCrashBeforeRestart) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  workload::ChurnPlanOptions plan;
  plan.crashes = 3;
  plan.downtime_micros = 0;  // Crash and restart share a timestamp.
  plan.stagger_micros = 0;
  auto churn = workload::PlanCrashRestart(*system, /*super_peer=*/0, plan);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  EXPECT_TRUE(ValidateChurnScript(*churn, system->node_count()).ok());
}

}  // namespace
}  // namespace p2pdb::core
