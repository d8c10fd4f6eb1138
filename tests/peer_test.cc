// Peer-level API behaviour and edge cases not covered by the protocol tests.
#include "src/core/peer.h"

#include <gtest/gtest.h>

#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/util/log_capture.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

rel::Database OneRelationDb(const char* name) {
  rel::Database db;
  (void)db.CreateRelation(rel::RelationSchema(name, {"x"}));
  return db;
}

TEST(PeerTest, RejectsForeignAndDuplicateRules) {
  net::SimRuntime rt;
  Peer a(0, "A", OneRelationDb("a"), &rt);
  Peer b(1, "B", OneRelationDb("b"), &rt);

  CoordinationRule rule;
  rule.id = "r";
  rule.head_node = 0;
  rel::Atom head;
  head.relation = "a";
  head.terms = {rel::Term::Var("X")};
  rule.head_atoms = {head};
  CoordinationRule::BodyPart part;
  part.node = 1;
  rel::Atom body;
  body.relation = "b";
  body.terms = {rel::Term::Var("X")};
  part.atoms = {body};
  rule.body = {part};

  EXPECT_FALSE(b.AddInitialRule(rule).ok());  // Head is A, not B.
  EXPECT_TRUE(a.AddInitialRule(rule).ok());
  Status dup = a.AddInitialRule(rule);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(PeerTest, MalformedDataPlanePayloadIsDroppedWithOneWarning) {
  // A QueryAnswer one byte short does not decode. The peer drops it and
  // says so once, naming the payload and its sender; nothing else changes.
  net::SimRuntime rt;
  Peer a(0, "A", OneRelationDb("a"), &rt);
  wire::QueryAnswer answer;
  answer.rule_id = "r";
  answer.part = 0;
  answer.source_closed = true;
  answer.tuples = {rel::Tuple({rel::Value::Str("x")})};
  net::Message msg;
  msg.type = net::MessageType::kQueryAnswer;
  msg.from = 7;
  msg.to = 0;
  std::vector<uint8_t> bytes = answer.Encode();
  bytes.pop_back();
  msg.payload = std::move(bytes);

  const rel::Database db_before = a.db();
  const UpdateEngine::State state_before = a.update().state();
  const UpdateEngine::Stats stats_before = a.update().stats();
  ScopedLogCapture capture;
  a.OnMessage(msg);

  const std::vector<std::string> lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("WARN"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("QueryAnswer"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("node 7"), std::string::npos) << lines[0];
  EXPECT_TRUE(a.db() == db_before);
  EXPECT_EQ(a.update().state(), state_before);
  const UpdateEngine::Stats& stats = a.update().stats();
  EXPECT_EQ(stats.tuples_inserted, stats_before.tuples_inserted);
  EXPECT_EQ(stats.applications_skipped, stats_before.applications_skipped);
  EXPECT_EQ(stats.applications_truncated, stats_before.applications_truncated);
  EXPECT_EQ(stats.joins_evaluated, stats_before.joins_evaluated);
  EXPECT_EQ(stats.answers_sent, stats_before.answers_sent);
  EXPECT_EQ(stats.token_passes, stats_before.token_passes);
  EXPECT_EQ(stats.reopens, stats_before.reopens);
}

TEST(PeerTest, PayloadFreeMessagesRejectAnyByte) {
  // SccClosed and Reopen carry wire::Empty: the type is the whole message,
  // so one byte of payload makes it malformed. The peer drops it with one
  // warning, and acts on the empty payload.
  auto system = lang::ParseSystem(R"(
    node A { rel a(x); }
    node B { rel b(x); }
    rule r: B.b(X) => A.a(X);
  )");
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  Session session(*system, &rt);
  Peer& a = session.peer(0);
  a.StartUpdate(1);  // Open until B answers, and the runtime never runs.
  ASSERT_EQ(a.update().state(), UpdateEngine::State::kOpen);
  auto message = [](net::MessageType type, std::vector<uint8_t> payload) {
    net::Message msg;
    msg.type = type;
    msg.from = 1;
    msg.to = 0;
    msg.payload = std::move(payload);
    return msg;
  };
  for (net::MessageType type :
       {net::MessageType::kSccClosed, net::MessageType::kReopen}) {
    SCOPED_TRACE(net::MessageTypeName(type));
    ScopedLogCapture capture;
    a.OnMessage(message(type, {0}));
    const std::vector<std::string> lines = capture.lines();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find(std::string("malformed ") +
                            net::MessageTypeName(type) + " from node 1"),
              std::string::npos)
        << lines[0];
    EXPECT_EQ(a.update().state(), UpdateEngine::State::kOpen);
  }
  a.OnMessage(message(net::MessageType::kSccClosed, {}));
  EXPECT_EQ(a.update().state(), UpdateEngine::State::kClosed);
}

TEST(PeerTest, DependencyTargetsDeduplicated) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  // C heads r2 (body B), r5 (body A), r7 (body D): three distinct targets.
  EXPECT_EQ(session.peer(2).DependencyTargets(),
            (std::set<NodeId>{0, 1, 3}));
  // E heads nothing.
  EXPECT_TRUE(session.peer(4).DependencyTargets().empty());
}

TEST(PeerTest, TopologyKnowledgeAccumulates) {
  net::SimRuntime rt;
  Peer p(0, "P", OneRelationDb("p"), &rt);
  p.AdoptTopology({{0, 1}, {1, 2}});
  EXPECT_EQ(p.known_edges().size(), 2u);
  // A second closure from another origin adds what is reachable from P.
  p.AdoptTopology({{0, 3}, {3, 0}, {7, 8}});  // 7->8 is not reachable from 0.
  EXPECT_EQ(p.known_edges().size(), 4u);
  EXPECT_FALSE(p.known_edges().count({7, 8}));
}

TEST(PeerTest, OwnSccWithoutKnowledgeIsSingleton) {
  net::SimRuntime rt;
  Peer p(5, "P", OneRelationDb("p"), &rt);
  EXPECT_EQ(p.OwnScc(), (std::set<NodeId>{5}));
}

TEST(PeerTest, LocalQueryAgainstOwnData) {
  net::SimRuntime rt;
  rel::Database db = OneRelationDb("p");
  (void)db.Insert("p", rel::Tuple({rel::Value::Int(7)}));
  Peer p(0, "P", std::move(db), &rt);
  auto q = lang::ParseQuery("q(X) :- p(X)");
  ASSERT_TRUE(q.ok());
  auto result = p.LocalQuery(*q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(PeerTest, MalformedPayloadIsIgnored) {
  net::SimRuntime rt;
  Peer p(0, "P", OneRelationDb("p"), &rt);
  net::Message msg;
  msg.type = net::MessageType::kQueryRequest;
  msg.from = 1;
  msg.to = 0;
  msg.payload = {0xde, 0xad};  // Not a valid QueryRequest.
  p.OnMessage(msg);            // Must not crash or change state.
  EXPECT_EQ(p.update().state(), UpdateEngine::State::kIdle);
}

TEST(SessionTest, ParticipantsFollowDependencyReachability) {
  auto system = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); }
node D { rel d(x); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => B.b(X);
rule r3: C.c(X) => D.d(X);
)");
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session::Options options;
  options.super_peer = 0;  // A reaches B, C — but not D (D->C, not C->D).
  Session session(*system, &rt, options);
  EXPECT_EQ(session.Participants(), (std::set<NodeId>{0, 1, 2}));
}

TEST(SessionTest, RunUpdateFromMultipleInitiators) {
  auto system = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); fact b("vb"); }
node X { rel x(x); }
node Y { rel y(x); fact y("vy"); }
rule ra: B.b(V) => A.a(V);
rule rx: Y.y(V) => X.x(V);
)");
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdateFrom({0, 2}).ok());
  EXPECT_EQ(session.peer(0).update().state(), UpdateEngine::State::kClosed);
  EXPECT_EQ(session.peer(2).update().state(), UpdateEngine::State::kClosed);
  EXPECT_EQ(session.peer(0).db().relation("a").size(), 1u);
  EXPECT_EQ(session.peer(2).db().relation("x").size(), 1u);
}

TEST(SessionTest, SnapshotDatabasesDeepCopies) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  auto before = session.SnapshotDatabases();
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  auto after = session.SnapshotDatabases();
  // The update changed peer state, not the earlier snapshot.
  EXPECT_LT(before[1].TotalTuples(), after[1].TotalTuples());
}

}  // namespace
}  // namespace p2pdb::core
