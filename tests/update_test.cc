#include "src/core/update.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/global_fixpoint.h"
#include "src/core/peer.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/relational/eval.h"
#include "src/relational/null_iso.h"
#include "src/util/log_capture.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }

// Runs discovery + update over a SimRuntime and returns the session.
std::unique_ptr<Session> RunFull(const P2PSystem& system, net::SimRuntime* rt,
                                 Session::Options options = {}) {
  auto session = std::make_unique<Session>(system, rt, options);
  EXPECT_TRUE(session->RunDiscovery().ok());
  EXPECT_TRUE(session->RunUpdate().ok());
  return session;
}

// Distributed result must agree with the centralized fix-point on certain
// tuples for every participating node.
void ExpectMatchesGlobalFixpoint(const P2PSystem& system, Session* session) {
  auto global = ComputeGlobalFixpoint(system, rel::ChaseOptions{});
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  for (NodeId n : session->Participants()) {
    EXPECT_TRUE(rel::DatabasesCertainEqual(session->peer(n).db(),
                                           global->node_dbs[n]))
        << "node " << n << "\ndistributed:\n"
        << session->peer(n).db().ToString() << "\nglobal:\n"
        << global->node_dbs[n].ToString();
  }
}

TEST(UpdateTest, ChainPropagatesToRoot) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); fact c("v1"); fact c("v2"); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => B.b(X);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  ASSERT_TRUE(session->AllClosed());
  const rel::Relation* a = *session->peer(0).db().Get("a");
  EXPECT_EQ(a->size(), 2u);
  EXPECT_TRUE(a->Contains(rel::Tuple({S("v1")})));
  ExpectMatchesGlobalFixpoint(*system, session.get());
}

TEST(UpdateTest, LeafNodesCloseImmediately) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(x); fact b("v"); }
rule r1: B.b(X) => A.a(X);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  EXPECT_EQ(session->peer(1).update().state(), UpdateEngine::State::kClosed);
  EXPECT_EQ(session->peer(0).update().state(), UpdateEngine::State::kClosed);
}

TEST(UpdateTest, TwoNodeCycleReachesFixpoint) {
  const char* text = R"(
node A { rel a(x); fact a("fromA"); }
node B { rel b(x); fact b("fromB"); }
rule r1: B.b(X) => A.a(X);
rule r2: A.a(X) => B.b(X);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  ASSERT_TRUE(session->AllClosed());
  for (NodeId n : {0u, 1u}) {
    EXPECT_EQ(session->peer(n).db().TotalTuples(), 2u) << "node " << n;
  }
  ExpectMatchesGlobalFixpoint(*system, session.get());
}

TEST(UpdateTest, RunningExampleMatchesGlobalFixpoint) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  std::set<NodeId> open;
  EXPECT_TRUE(session->AllClosed(&open)) << "open nodes: " << open.size();
  ExpectMatchesGlobalFixpoint(*system, session.get());
}

TEST(UpdateTest, RunningExampleDataLandsEverywhere) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  // E's pairs reach B via r1; loops B->C->B close; A gets r4 output; D gets
  // r6 output; C gets f(X) via r5.
  EXPECT_GE((*session->peer(1).db().Get("b"))->size(), 3u);
  EXPECT_GE((*session->peer(2).db().Get("c"))->size(), 1u);
  EXPECT_GE((*session->peer(0).db().Get("a"))->size(), 1u);
  EXPECT_GE((*session->peer(3).db().Get("d"))->size(), 1u);
  EXPECT_GE((*session->peer(2).db().Get("f"))->size(), 1u);
}

TEST(UpdateTest, DeltaAndFullAnswersAgree) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());

  net::SimRuntime rt_delta;
  Session::Options delta_options;
  delta_options.peer.update.delta_answers = true;
  auto with_delta = RunFull(*system, &rt_delta, delta_options);

  net::SimRuntime rt_full;
  Session::Options full_options;
  full_options.peer.update.delta_answers = false;
  auto with_full = RunFull(*system, &rt_full, full_options);

  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_TRUE(rel::DatabasesCertainEqual(with_delta->peer(n).db(),
                                           with_full->peer(n).db()))
        << "node " << n;
  }
  // The delta optimization can only reduce the bytes moved.
  EXPECT_LE(rt_delta.stats().BytesOfType(net::MessageType::kQueryAnswer),
            rt_full.stats().BytesOfType(net::MessageType::kQueryAnswer));
}

TEST(UpdateTest, MultiNodeBodyJoinsAcrossPeers) {
  const char* text = R"(
node L { rel l(k, v); fact l("k1", "x"); fact l("k2", "y"); }
node R { rel r(k, w); fact r("k1", "p"); fact r("k3", "q"); }
node T { rel t(v, w); }
rule j: L.l(K, V), R.r(K, W) => T.t(V, W);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session::Options options;
  options.super_peer = 2;  // T is the head.
  auto session = RunFull(*system, &rt, options);
  ASSERT_TRUE(session->AllClosed());
  const rel::Relation* t = *session->peer(2).db().Get("t");
  ASSERT_EQ(t->size(), 1u);  // Only k1 joins.
  EXPECT_TRUE(t->Contains(rel::Tuple({S("x"), S("p")})));
}

TEST(UpdateTest, CrossBuiltinFiltersJoin) {
  const char* text = R"(
node L { rel l(v); fact l(1); fact l(5); }
node R { rel r(w); fact r(3); }
node T { rel t(v, w); }
rule j: L.l(V), R.r(W), V < W => T.t(V, W);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session::Options options;
  options.super_peer = 2;
  auto session = RunFull(*system, &rt, options);
  const rel::Relation* t = *session->peer(2).db().Get("t");
  ASSERT_EQ(t->size(), 1u);
  EXPECT_TRUE(
      t->Contains(rel::Tuple({rel::Value::Int(1), rel::Value::Int(3)})));
}

TEST(UpdateTest, ExistentialRuleInventsWitnessOnce) {
  const char* text = R"(
node R { rel rec(a, t); fact rec("alice", "t1"); }
node P { rel pub(i, t, y); rel wrote(a, i); }
rule x: R.rec(A, T) => P.pub(I, T, Y), P.wrote(A, I);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session::Options options;
  options.super_peer = 1;
  auto session = RunFull(*system, &rt, options);
  ASSERT_TRUE(session->AllClosed());
  const rel::Relation* pub = *session->peer(1).db().Get("pub");
  const rel::Relation* wrote = *session->peer(1).db().Get("wrote");
  ASSERT_EQ(pub->size(), 1u);
  ASSERT_EQ(wrote->size(), 1u);
  // Shared existential: the same null links the two atoms.
  EXPECT_EQ(pub->View().at(0).at(0), wrote->View().at(0).at(1));
}

// The semi-naive join over part logs, driven answer by answer: a two-part
// rule receives each part's answers in several batches, interleaved with
// the other part's, plus a repeated batch. Every join binding has its own
// head tuple, so "inserted, never skipped" means no binding was applied
// twice, and the head must end at the centralized fixpoint.
TEST(UpdateTest, InterleavedAnswerBatchesJoinEachBindingOnce) {
  std::string text = "node L { rel l(k, v);";
  for (int i = 0; i < 12; ++i) {
    text += " fact l(\"k" + std::to_string(i % 4) + "\", \"v" +
            std::to_string(i) + "\");";
  }
  text += " }\nnode R { rel r(k, w);";
  for (int i = 0; i < 9; ++i) {
    text += " fact r(\"k" + std::to_string(i % 4) + "\", \"w" +
            std::to_string(i) + "\");";
  }
  text += " }\nnode T { rel t(k, v, w); }\n"
          "rule j: L.l(K, V), R.r(K, W) => T.t(K, V, W);\n";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const CoordinationRule& rule = system->rules().at(0);

  // Each part's full answer, split round-robin into three batches.
  std::vector<std::vector<std::set<rel::Tuple>>> batches(2);
  for (uint32_t part = 0; part < 2; ++part) {
    auto answer = rel::EvaluateQuery(system->node(part).db,
                                     rule.PartQuery(part));
    ASSERT_TRUE(answer.ok());
    batches[part].resize(3);
    size_t i = 0;
    for (const rel::Tuple& t : *answer) batches[part][i++ % 3].insert(t);
  }

  net::SimRuntime rt;  // Never run: answers are fed by hand.
  Peer head(2, "T", system->node(2).db, &rt);
  ASSERT_TRUE(head.AddInitialRule(rule).ok());
  head.StartUpdate(1);
  auto feed = [&](uint32_t part, const std::set<rel::Tuple>& tuples) {
    wire::QueryAnswer ans;
    ans.session = 1;
    ans.rule_id = rule.id;
    ans.part = part;
    ans.is_delta = true;
    ans.tuples.assign(tuples.begin(), tuples.end());
    head.update().OnQueryAnswer(part, ans);
  };
  for (size_t b = 0; b < 3; ++b) {
    feed(0, batches[0][b]);
    feed(1, batches[1][b]);
  }
  feed(0, batches[0][0]);  // A repeat adds no entry and joins nothing.

  auto global = ComputeGlobalFixpoint(*system, rel::ChaseOptions{});
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  EXPECT_TRUE(head.db() == global->node_dbs[2]);
  const size_t expected = (*global->node_dbs[2].Get("t"))->size();
  EXPECT_EQ(expected, 3u * 3u + 3u * (2u * 3u));  // Per key |l| * |r|.
  const UpdateEngine::Stats& stats = head.update().stats();
  EXPECT_EQ(stats.joins_evaluated, 6u);
  EXPECT_EQ(stats.tuples_inserted, expected);
  EXPECT_EQ(stats.applications_skipped, 0u);
}

// A body answer holding a tuple of the wrong arity is dropped whole: none of
// its tuples reach the part log and its closed flag does not close the part,
// so the head stays open until a well-formed final answer arrives.
TEST(UpdateTest, MalformedAnswerIsRejectedWhole) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(x); }
rule r1: B.b(X) => A.a(X);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const CoordinationRule& rule = system->rules().at(0);
  net::SimRuntime rt;  // Never run: answers are fed by hand.
  Peer head(0, "A", system->node(0).db, &rt);
  ASSERT_TRUE(head.AddInitialRule(rule).ok());
  head.StartUpdate(1);
  wire::QueryAnswer ans;
  ans.session = 1;
  ans.rule_id = rule.id;
  ans.part = 0;
  ans.source_closed = true;
  ans.tuples = {rel::Tuple({S("v1")}), rel::Tuple({S("v2"), S("extra")})};
  {
    ScopedLogCapture capture;
    head.update().OnQueryAnswer(1, ans);
    EXPECT_EQ(capture.lines().size(), 1u);
  }
  EXPECT_EQ((*head.db().Get("a"))->size(), 0u);
  EXPECT_EQ(head.update().state(), UpdateEngine::State::kOpen);

  ans.tuples = {rel::Tuple({S("v1")})};
  head.update().OnQueryAnswer(1, ans);
  EXPECT_EQ((*head.db().Get("a"))->size(), 1u);
  EXPECT_EQ(head.update().state(), UpdateEngine::State::kClosed);
}

/// Stands in for a subscriber node: keeps every answer delivered to it.
struct AnswerSink : net::PeerHandler {
  void OnMessage(const net::Message& msg) override {
    if (msg.type != net::MessageType::kQueryAnswer) return;
    auto ans = wire::QueryAnswer::Decode(msg.payload);
    ASSERT_TRUE(ans.ok()) << ans.status().ToString();
    answers.push_back(ans.MoveValue());
  }
  std::vector<wire::QueryAnswer> answers;
};

std::vector<rel::Tuple> Rows(std::initializer_list<const char*> values) {
  std::vector<rel::Tuple> rows;
  for (const char* v : values) rows.push_back(rel::Tuple({S(v)}));
  return rows;
}

// B holds b in insertion order v3, v1, v2 and heads rule r. A is an answer
// sink subscribed to b; C's answer for r (v5, v1, v4) is fed to B by hand,
// which appends v5 and v4 to b and notifies A. Returns what A received and
// checks that B appended exactly those two entries.
std::vector<wire::QueryAnswer> SubscribeAndGrow(bool delta_answers) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(x); fact b("v3"); fact b("v1"); fact b("v2"); }
node C { rel c(x); }
rule r: C.c(X) => B.b(X);
)";
  auto system = lang::ParseSystem(text);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  AnswerSink sink;
  rt.RegisterPeer(0, &sink);
  Peer::Config config;
  config.update.delta_answers = delta_answers;
  Peer b(1, "B", system->node(1).db, &rt, config);
  EXPECT_TRUE(b.AddInitialRule(system->rules().at(0)).ok());
  b.StartUpdate(1);

  wire::QueryRequest req;
  req.session = 1;
  req.rule_id = "watch";
  rel::Atom atom;
  atom.relation = "b";
  atom.terms = {rel::Term::Var("X")};
  req.query.atoms = {atom};
  req.query.head_vars = {"X"};
  b.update().OnQueryRequest(0, req);

  wire::QueryAnswer from_c;
  from_c.session = 1;
  from_c.rule_id = "r";
  from_c.tuples = Rows({"v5", "v1", "v4"});
  b.update().OnQueryAnswer(2, from_c);
  EXPECT_TRUE(rt.Run().ok());

  const rel::LogView log = (*b.db().Get("b"))->View();
  EXPECT_EQ(log.size(), 5u);
  if (log.size() == 5) {
    EXPECT_EQ(log.at(3), rel::Tuple({S("v5")}));
    EXPECT_EQ(log.at(4), rel::Tuple({S("v4")}));
  }
  return sink.answers;
}

TEST(UpdateTest, InitialAnswerListsTuplesInInsertionOrder) {
  const std::vector<wire::QueryAnswer> answers = SubscribeAndGrow(true);
  ASSERT_FALSE(answers.empty());
  EXPECT_TRUE(answers[0].is_delta);
  EXPECT_EQ(answers[0].tuples, Rows({"v3", "v1", "v2"}));
}

TEST(UpdateTest, DeltaHoldsNewEntriesInAppendOrder) {
  const std::vector<wire::QueryAnswer> answers = SubscribeAndGrow(true);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_TRUE(answers[1].is_delta);
  EXPECT_EQ(answers[1].tuples, Rows({"v5", "v4"}));
}

TEST(UpdateTest, FullModeShipsWholeSentLogInOrder) {
  const std::vector<wire::QueryAnswer> answers = SubscribeAndGrow(false);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].tuples, Rows({"v3", "v1", "v2"}));
  EXPECT_FALSE(answers[1].is_delta);
  EXPECT_EQ(answers[1].tuples, Rows({"v3", "v1", "v2", "v5", "v4"}));
}

// Answers arrive in the sender's log order, so the order a head mints nulls
// in follows it. Two heads fed the same answer tuples in opposite orders
// name their nulls differently but reach isomorphic instances. The
// homomorphism check makes that hold with shared join values; the paper's
// per-atom projection check is order-dependent there by design.
TEST(UpdateTest, ReversedAnswerOrderReachesIsomorphicInstance) {
  const char* text = R"(
node R { rel rec(a, t); }
node P { rel pub(i, t, y); rel wrote(a, i); }
rule x: R.rec(A, T) => P.pub(I, T, Y), P.wrote(A, I);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const CoordinationRule& rule = system->rules().at(0);
  std::vector<rel::Tuple> recs = {
      rel::Tuple({S("alice"), S("t1")}), rel::Tuple({S("bob"), S("t1")}),
      rel::Tuple({S("carol"), S("t2")}), rel::Tuple({S("dave"), S("t3")}),
      rel::Tuple({S("erin"), S("t2")})};
  auto run = [&](std::vector<rel::Tuple> tuples) {
    net::SimRuntime rt;  // Never run: answers are fed by hand.
    Peer::Config config;
    config.update.chase.policy = rel::ChasePolicy::kHomomorphismCheck;
    Peer head(1, "P", system->node(1).db, &rt, config);
    EXPECT_TRUE(head.AddInitialRule(rule).ok());
    head.StartUpdate(1);
    wire::QueryAnswer ans;
    ans.session = 1;
    ans.rule_id = rule.id;
    ans.source_closed = true;
    ans.tuples = std::move(tuples);
    head.update().OnQueryAnswer(0, ans);
    EXPECT_EQ(head.update().state(), UpdateEngine::State::kClosed);
    return head.db();
  };
  const rel::Database forward = run(recs);
  std::reverse(recs.begin(), recs.end());
  const rel::Database backward = run(recs);
  EXPECT_EQ((*forward.Get("wrote"))->size(), 5u);
  EXPECT_FALSE(forward == backward) << "the same nulls were minted";
  EXPECT_TRUE(rel::DatabasesIsomorphic(forward, backward))
      << "forward:\n" << forward.ToString() << "\nbackward:\n"
      << backward.ToString();
}

// A subscription request whose query cannot be compiled is warned about once
// and leaves no subscription behind, not even one it would have replaced, so
// the notifies of a later update never re-run it.
TEST(UpdateTest, UncompilableSubscriptionWarnsOnceAndIsDropped) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); }
node D { rel d(x); fact d("v1"); fact d("v2"); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => B.b(X);
rule r3: D.d(X) => C.c(X);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const NodeId a = *system->NodeByName("A");
  const NodeId b = *system->NodeByName("B");
  auto request = [](bool safe) {
    wire::QueryRequest req;
    req.session = 1;
    req.rule_id = "injected";
    rel::Atom atom;
    atom.relation = "b";
    atom.terms = {rel::Term::Var("X")};
    req.query.atoms = {atom};
    req.query.head_vars = {safe ? "X" : "Z"};  // Z is bound by no atom.
    return req;
  };
  // Answers B sends in one update after the injected requests; every line
  // logged meanwhile counts as a warning.
  auto run = [&](bool subscribe_first, size_t* warnings) {
    net::SimRuntime rt;
    Session session(*system, &rt);
    EXPECT_TRUE(session.RunDiscovery().ok());
    ScopedLogCapture capture;
    UpdateEngine& engine = session.peer(b).update();
    if (subscribe_first) engine.OnQueryRequest(a, request(true));
    engine.OnQueryRequest(a, request(false));
    const uint64_t before = engine.stats().answers_sent;
    EXPECT_TRUE(session.RunUpdate().ok());
    EXPECT_TRUE(session.AllClosed());
    ExpectMatchesGlobalFixpoint(*system, &session);
    *warnings = capture.lines().size();
    return engine.stats().answers_sent - before;
  };
  size_t warnings = 0;
  const uint64_t plain = run(false, &warnings);
  EXPECT_EQ(warnings, 1u);
  EXPECT_EQ(run(true, &warnings), plain);
  EXPECT_EQ(warnings, 1u);
}

TEST(UpdateTest, TokenRingClosesLargerCycle) {
  // Ring of 5 nodes, data injected at one point, must circulate and close.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kRing;
  options.topology.nodes = 5;
  options.records_per_node = 3;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  std::set<NodeId> open;
  ASSERT_TRUE(session->AllClosed(&open)) << open.size() << " nodes open";
  ExpectMatchesGlobalFixpoint(*system, session.get());
  // Token passes happened (a real ring ran).
  EXPECT_GT(rt.stats().MessagesOfType(net::MessageType::kToken), 0u);
}

TEST(UpdateTest, StatsAreRecorded) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  const UpdateEngine::Stats& stats = session->peer(1).update().stats();
  EXPECT_GT(stats.joins_evaluated, 0u);
  EXPECT_GT(stats.tuples_inserted, 0u);
  EXPECT_GT(stats.answers_sent, 0u);
}

TEST(UpdateTest, IdempotentSecondUpdateAddsNothing) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  auto session = RunFull(*system, &rt);
  std::vector<rel::Database> first = session->SnapshotDatabases();
  ASSERT_TRUE(session->RunUpdate().ok());  // Second session.
  std::vector<rel::Database> second = session->SnapshotDatabases();
  for (size_t n = 0; n < first.size(); ++n) {
    EXPECT_TRUE(first[n] == second[n]) << "node " << n;
  }
}

}  // namespace
}  // namespace p2pdb::core
