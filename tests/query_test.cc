// Query plane: the lock-free MVCC read path and its snapshot machinery
// (src/relational/mvcc.h). Covers snapshot/live
// equivalence before and after updates, log sharing at watermarks, point
// lookups, crashed-peer reads, the generated query workload, and a
// TSan-targeted hammer: reader threads on Session::Query while a churned
// TCP update propagates underneath.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "src/core/session.h"
#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"
#include "src/relational/eval.h"
#include "src/relational/mvcc.h"
#include "src/util/log_capture.h"
#include "src/workload/queries.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }

std::string FreshRoot(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/p2pdb_query_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// R(X, Y) projected onto both columns — the full binary relation.
rel::ConjunctiveQuery AllPairs(const std::string& relation) {
  rel::ConjunctiveQuery cq;
  rel::Atom atom;
  atom.relation = relation;
  atom.terms = {rel::Term::Var("X"), rel::Term::Var("Y")};
  cq.atoms.push_back(atom);
  cq.head_vars = {"X", "Y"};
  return cq;
}

TEST(QueryPlaneTest, InitialSnapshotMatchesLiveDatabase) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);

  auto e = system->NodeByName("E");
  ASSERT_TRUE(e.ok());
  auto via_snapshot = session.Query(*e, AllPairs("e"));
  ASSERT_TRUE(via_snapshot.ok()) << via_snapshot.status().ToString();
  auto via_live = rel::EvaluateQuery(session.peer(*e).db(), AllPairs("e"));
  ASSERT_TRUE(via_live.ok());
  EXPECT_EQ(*via_snapshot, *via_live);
  EXPECT_EQ(via_snapshot->size(), 3u);

  auto snap = session.PeerSnapshot(*e);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->batch(), 0u);  // No delta batch committed yet.
}

TEST(QueryPlaneTest, SnapshotAdvancesWithCommittedUpdate) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());

  // Every node's published snapshot answers exactly like its live database.
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    auto id = system->NodeByName(name);
    ASSERT_TRUE(id.ok());
    for (const rel::Relation& live : session.peer(*id).db().relations()) {
      const std::string& relation = live.name();
      auto via_snapshot = session.Query(*id, AllPairs(relation));
      auto via_live =
          rel::EvaluateQuery(session.peer(*id).db(), AllPairs(relation));
      if (!via_live.ok()) continue;  // Arity-1 relations: skip.
      ASSERT_TRUE(via_snapshot.ok());
      EXPECT_EQ(*via_snapshot, *via_live) << name << "." << relation;
    }
  }

  // The update pushed E's facts into B, so B committed at least one batch.
  auto b = system->NodeByName("B");
  ASSERT_TRUE(b.ok());
  auto snap = session.PeerSnapshot(*b);
  ASSERT_TRUE(snap.ok());
  EXPECT_GT(snap->batch(), 0u);
  auto derived = session.Query(*b, AllPairs("b"));
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(derived->count(rel::Tuple({S("u"), S("v")})));  // From E.e.
}

TEST(QueryPlaneTest, SnapshotsShareLogsAtWatermarks) {
  rel::DbSnapshot v0, v1;
  {
    rel::Database db;
    ASSERT_TRUE(
        db.CreateRelation(rel::RelationSchema("hot", {"x", "y"})).ok());
    ASSERT_TRUE(db.CreateRelation(rel::RelationSchema("cold", {"x"})).ok());
    ASSERT_TRUE(*db.Insert("hot", rel::Tuple({S("a"), S("b")})));
    ASSERT_TRUE(*db.Insert("cold", rel::Tuple({S("k")})));

    rel::SnapshotStore store;
    store.Publish(db);
    v0 = store.Acquire();
    ASSERT_TRUE(*db.Insert("hot", rel::Tuple({S("c"), S("d")})));
    store.Commit(db);
    v1 = store.Acquire();

    // Both snapshots read the live relations' logs in place and differ only
    // in where they stop reading.
    for (const char* name : {"hot", "cold"}) {
      const rel::RelationId id = db.Find(name);
      EXPECT_EQ(v0.View(id).at(0).begin(), v1.View(id).at(0).begin());
      EXPECT_EQ(v0.View(id).at(0).begin(),
                db.relation(id).View().at(0).begin());
    }
    EXPECT_EQ(v0.View(db.Find("hot")).size(), 1u);
    EXPECT_EQ(v1.View(db.Find("hot")).size(), 2u);
    EXPECT_EQ(v1.batch(), 1u);
  }  // The database and the store go away, as a crashed peer's do.

  // v0 still answers as of its publication: 1 tuple, not the 2 of v1.
  auto old_rows = rel::EvaluateQuery(v0, AllPairs("hot"));
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(*old_rows, (std::set<rel::Tuple>{rel::Tuple({S("a"), S("b")})}));
  EXPECT_FALSE(
      v0.View(v0.Find("hot")).Contains(rel::Tuple({S("c"), S("d")})));
  auto new_rows = rel::EvaluateQuery(v1, AllPairs("hot"));
  ASSERT_TRUE(new_rows.ok());
  EXPECT_EQ(new_rows->size(), 2u);
  EXPECT_TRUE(v1.View(v1.Find("cold")).Contains(rel::Tuple({S("k")})));
}

TEST(QueryPlaneTest, PointLookupsHitMissAndBoundsCheck) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);

  auto e = system->NodeByName("E");
  ASSERT_TRUE(e.ok());
  auto hit = session.QueryPoint(*e, "e", rel::Tuple({S("u"), S("v")}));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  auto miss = session.QueryPoint(*e, "e", rel::Tuple({S("zz"), S("zz")}));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(*miss);
  auto no_rel = session.QueryPoint(*e, "nosuch", rel::Tuple({S("u")}));
  ASSERT_TRUE(no_rel.ok());
  EXPECT_FALSE(*no_rel);

  EXPECT_FALSE(session.Query(99, AllPairs("e")).ok());
  EXPECT_FALSE(session.QueryPoint(99, "e", rel::Tuple({S("u")})).ok());
  EXPECT_FALSE(session.PeerSnapshot(99).ok());
}

TEST(QueryPlaneTest, ArityMismatchedAtomAnswersEmpty) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);

  // C.f has arity 1; querying it as binary must answer empty (unification
  // fails tuple by tuple), never crash or build an out-of-range index.
  auto c = system->NodeByName("C");
  ASSERT_TRUE(c.ok());
  auto wide = session.Query(*c, AllPairs("f"));
  ASSERT_TRUE(wide.ok());
  EXPECT_TRUE(wide->empty());

  // Constant at a position past the relation's arity: the index fast path
  // must be skipped, not taken with an out-of-range column.
  rel::ConjunctiveQuery cq;
  rel::Atom atom;
  atom.relation = "f";
  atom.terms = {rel::Term::Var("X"), rel::Term::Const(S("u"))};
  cq.atoms.push_back(atom);
  cq.head_vars = {"X"};
  auto gated = session.Query(*c, cq);
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated->empty());
}

TEST(QueryPlaneTest, CrashedPeerKeepsServingItsLastSnapshot) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());

  auto b = system->NodeByName("B");
  ASSERT_TRUE(b.ok());
  auto before = session.Query(*b, AllPairs("b"));
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());

  ASSERT_TRUE(session.CrashPeer(*b).ok());
  ASSERT_FALSE(session.IsAlive(*b));

  // The peer object is gone, but its SnapshotStore (session-owned) still
  // serves the last committed state — readers never observe the crash.
  auto after = session.Query(*b, AllPairs("b"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
  auto hit = session.QueryPoint(*b, "b", *before->begin());
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
}

TEST(QueryPlaneTest, RestartedPeerPublishesRecoveredSnapshot) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  std::string root = FreshRoot("restart");
  Session::Options options;
  options.storage_root = root;
  Session session(*system, &rt, options);
  ASSERT_TRUE(session.RunDiscovery().ok());

  auto victim = system->NodeByName("B");
  ASSERT_TRUE(victim.ok());
  ChurnScript churn = {ChurnEvent::Crash(3'000, *victim),
                       ChurnEvent::Restart(9'000, *victim)};
  ScopedLogCapture quiet;
  ASSERT_TRUE(session.RunUpdateWithChurn(churn).ok());
  ASSERT_TRUE(session.AllClosed());

  // After log replay and re-convergence, the published
  // snapshot matches the live recovered database.
  auto via_snapshot = session.Query(*victim, AllPairs("b"));
  ASSERT_TRUE(via_snapshot.ok());
  auto via_live =
      rel::EvaluateQuery(session.peer(*victim).db(), AllPairs("b"));
  ASSERT_TRUE(via_live.ok());
  EXPECT_EQ(*via_snapshot, *via_live);
  EXPECT_FALSE(via_snapshot->empty());
}

TEST(QueryWorkloadTest, DeterministicSafeAndHonestAboutHits) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  workload::QueryWorkloadOptions options;
  options.ops = 256;
  auto a = workload::BuildQueryWorkload(*system, options);
  auto b = workload::BuildQueryWorkload(*system, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), 256u);
  ASSERT_EQ(a->size(), b->size());

  net::SimRuntime rt;
  Session session(*system, &rt);
  size_t points = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    const workload::QueryOp& op = (*a)[i];
    EXPECT_EQ(op.is_point, (*b)[i].is_point);  // Same seed, same stream.
    EXPECT_EQ(op.node, (*b)[i].node);
    ASSERT_LT(op.node, system->node_count());
    if (op.is_point) {
      ++points;
      auto hit = session.QueryPoint(op.node, op.relation, op.key);
      ASSERT_TRUE(hit.ok());
      EXPECT_EQ(*hit, op.expect_hit) << "op " << i;
    } else {
      EXPECT_TRUE(op.cq.CheckSafe().ok()) << "op " << i;
      auto rows = session.Query(op.node, op.cq);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      EXPECT_FALSE(rows->empty()) << "op " << i;  // Keys come from real data.
    }
  }
  EXPECT_GT(points, 0u);
  EXPECT_LT(points, a->size());
}

// Reads draw the k-th tuple of each relation's sorted copy, so the stream
// does not depend on the order the initial tuples were inserted in.
TEST(QueryWorkloadTest, StreamIgnoresInsertionOrder) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  P2PSystem reversed = *system;
  for (NodeId n = 0; n < reversed.node_count(); ++n) {
    rel::Database refilled;
    for (const rel::Relation& relation : system->node(n).db.relations()) {
      ASSERT_TRUE(refilled.CreateRelation(relation.schema()).ok());
      const rel::LogView log = relation.View();
      for (size_t i = log.size(); i-- > 0;) {
        ASSERT_TRUE(refilled.Insert(relation.name(), log.at(i)).ok());
      }
    }
    *reversed.mutable_db(n) = std::move(refilled);
  }
  workload::QueryWorkloadOptions options;
  options.ops = 256;
  auto a = workload::BuildQueryWorkload(*system, options);
  auto b = workload::BuildQueryWorkload(reversed, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].key, (*b)[i].key) << "op " << i;
    EXPECT_EQ((*a)[i].cq.ToString(), (*b)[i].cq.ToString()) << "op " << i;
  }
}

// The TSan target: reader threads hammer the query plane over real sockets
// while an update propagates and a peer crashes and recovers underneath.
// Readers assert three invariants per node: every read succeeds, snapshot
// versions never go backwards, and answers only grow (updates are monotone).
TEST(QueryPlaneTest, ConcurrentReadsDuringChurnedTcpUpdate) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 8;
  options.records_per_node = 6;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());

  net::TcpRuntime rt;
  std::string root = FreshRoot("tsan_churn");
  Session::Options session_options;
  session_options.storage_root = root;
  Session session(*system, &rt, session_options);
  ASSERT_TRUE(session.RunDiscovery().ok());

  workload::QueryWorkloadOptions wl;
  wl.ops = 128;
  auto ops = workload::BuildQueryWorkload(*system, wl);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();

  workload::ChurnPlanOptions plan;
  plan.crashes = 1;
  plan.crash_at_micros = 2'500;
  plan.downtime_micros = 6'000;
  auto churn = workload::PlanCrashRestart(*system, /*super_peer=*/0, plan);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> violations{0};
  auto reader = [&](size_t offset) {
    std::vector<uint64_t> last_version(system->node_count(), 0);
    std::map<size_t, size_t> last_rows;  // op index -> last answer size
    size_t i = offset % ops->size();
    while (!stop.load(std::memory_order_relaxed)) {
      const workload::QueryOp& op = (*ops)[i];
      auto snap = session.PeerSnapshot(op.node);
      if (!snap.ok() || snap->batch() < last_version[op.node]) {
        violations.fetch_add(1);
      } else {
        last_version[op.node] = snap->batch();
      }
      if (op.is_point) {
        auto hit = session.QueryPoint(op.node, op.relation, op.key);
        // Monotone updates: a hit can never become a miss, and a
        // deliberate-miss key can never start hitting.
        if (!hit.ok() || *hit != op.expect_hit) violations.fetch_add(1);
      } else {
        auto rows = session.Query(op.node, op.cq);
        if (!rows.ok() || rows->size() < last_rows[i]) {
          violations.fetch_add(1);
        } else {
          last_rows[i] = rows->size();
        }
      }
      served.fetch_add(1);
      i = (i + 1) % ops->size();
    }
  };

  std::vector<std::thread> readers;
  readers.emplace_back(reader, 0);
  readers.emplace_back(reader, ops->size() / 2);

  ScopedLogCapture quiet;
  Status update = session.RunUpdateWithChurn(*churn);
  stop.store(true);
  for (std::thread& t : readers) t.join();

  ASSERT_TRUE(update.ok()) << update.ToString();
  EXPECT_TRUE(session.AllClosed());
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(served.load(), 0u);
}

}  // namespace
}  // namespace p2pdb::core
