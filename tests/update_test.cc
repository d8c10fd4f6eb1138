#include "src/core/update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>

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
  const rel::Relation* a = &session->peer(0).db().relation("a");
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
  EXPECT_GE(session->peer(1).db().relation("b").size(), 3u);
  EXPECT_GE(session->peer(2).db().relation("c").size(), 1u);
  EXPECT_GE(session->peer(0).db().relation("a").size(), 1u);
  EXPECT_GE(session->peer(3).db().relation("d").size(), 1u);
  EXPECT_GE(session->peer(2).db().relation("f").size(), 1u);
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
  const rel::Relation* t = &session->peer(2).db().relation("t");
  ASSERT_EQ(t->size(), 1u);  // Only k1 joins.
  EXPECT_TRUE(t->Contains(rel::Tuple({S("x"), S("p")})));

  // A multi-part rule keeps its part logs: a repeat joins nothing.
  UpdateEngine& head = session->peer(2).update();
  const uint64_t joins = head.stats().joins_evaluated;
  wire::QueryAnswer repeat;
  repeat.session = 1;
  repeat.rule_id = "j";
  repeat.part = 0;
  repeat.source_closed = true;
  repeat.tuples = {rel::Tuple({S("k1"), S("x")}),
                   rel::Tuple({S("k2"), S("y")})};
  head.OnQueryAnswer(0, repeat);
  EXPECT_EQ(head.stats().joins_evaluated, joins);
  EXPECT_EQ(t->size(), 1u);
  EXPECT_EQ(head.state(), UpdateEngine::State::kClosed);
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
  const rel::Relation* t = &session->peer(2).db().relation("t");
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
  const rel::Relation* pub = &session->peer(1).db().relation("pub");
  const rel::Relation* wrote = &session->peer(1).db().relation("wrote");
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
  const size_t expected = global->node_dbs[2].relation("t").size();
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
  EXPECT_EQ(head.db().relation("a").size(), 0u);
  EXPECT_EQ(head.update().state(), UpdateEngine::State::kOpen);

  ans.tuples = {rel::Tuple({S("v1")})};
  head.update().OnQueryAnswer(1, ans);
  EXPECT_EQ(head.db().relation("a").size(), 1u);
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

  const rel::LogView log = b.db().relation("b").View();
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

// A subscription request for one atom of `relation` with `terms` (a term
// that starts with a lower-case letter is a string constant), answering
// `head`.
wire::QueryRequest Watch(const char* relation,
                         std::initializer_list<const char*> terms,
                         std::vector<std::string> head) {
  wire::QueryRequest req;
  req.session = 1;
  req.rule_id = "watch";
  rel::Atom atom;
  atom.relation = relation;
  for (const char* t : terms) {
    atom.terms.push_back(std::islower(static_cast<unsigned char>(t[0]))
                             ? rel::Term::Const(S(t))
                             : rel::Term::Var(t));
  }
  req.query.atoms = {atom};
  req.query.head_vars = std::move(head);
  return req;
}

wire::QueryAnswer PairAnswer(
    const char* rule_id,
    std::initializer_list<std::pair<const char*, const char*>> pairs) {
  wire::QueryAnswer ans;
  ans.session = 1;
  ans.rule_id = rule_id;
  for (const auto& [x, y] : pairs) {
    ans.tuples.push_back(rel::Tuple({S(x), S(y)}));
  }
  return ans;
}

// Every tuple `sink` received, in arrival order.
std::vector<rel::Tuple> Received(const AnswerSink& sink) {
  std::vector<rel::Tuple> out;
  for (const wire::QueryAnswer& ans : sink.answers) {
    for (rel::Row row : ans.tuples) out.emplace_back(row);
  }
  return out;
}

// A subscription whose head keeps every variable of its one atom keeps no
// last_sent: its answers are its relation's matching entries, and it ships
// each exactly once and in log order. That holds while the relation grows
// over several chase applications, and for a subscription that arrives
// after a growth its subscribers have not yet been notified of (here an
// insert by hand): its initial answer covers that entry, and the next notify
// ships it to the older subscriptions alone.
TEST(UpdateTest, KeepAllVariablesSubscriptionShipsEachEntryOnceInLogOrder) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(k, v); fact b("k1", "v0"); fact b("k2", "v0"); }
node C { rel c(k, v); }
rule r: C.c(K, V) => B.b(K, V);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  AnswerSink swapped;  // b(K, V), shipped as (V, K).
  AnswerSink keyed;    // b("k1", V), shipped as (V).
  AnswerSink late;     // b(K, V), subscribed after an unnotified insert.
  rt.RegisterPeer(0, &swapped);
  rt.RegisterPeer(3, &keyed);
  rt.RegisterPeer(4, &late);
  Peer b(1, "B", system->node(1).db, &rt);
  ASSERT_TRUE(b.AddInitialRule(system->rules().at(0)).ok());
  b.StartUpdate(1);
  b.update().OnQueryRequest(0, Watch("b", {"K", "V"}, {"V", "K"}));
  b.update().OnQueryRequest(3, Watch("b", {"k1", "V"}, {"V"}));

  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k1", "v1"}, {"k2", "v2"}}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k1", "v1"}, {"k1", "v3"}}));
  ASSERT_TRUE(b.db().Insert("b", rel::Tuple({S("k1"), S("v4")})).ok());
  b.update().OnQueryRequest(4, Watch("b", {"K", "V"}, {"K", "V"}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k2", "v5"}, {"k1", "v6"}}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k1", "v4"}, {"k2", "v2"}}));
  ASSERT_TRUE(rt.Run().ok());

  const rel::LogView log = b.db().relation("b").View();
  ASSERT_EQ(log.size(), 8u);
  std::vector<rel::Tuple> all_swapped;
  std::vector<rel::Tuple> k1_values;
  std::vector<rel::Tuple> all;
  for (size_t e = 0; e < log.size(); ++e) {
    const rel::Row row = log.at(e);
    all_swapped.push_back(rel::Tuple({row.at(1), row.at(0)}));
    if (row.at(0) == S("k1")) k1_values.push_back(rel::Tuple({row.at(1)}));
    all.emplace_back(row);
  }
  EXPECT_EQ(Received(swapped), all_swapped);
  EXPECT_EQ(Received(keyed), k1_values);
  EXPECT_EQ(Received(late), all);
  // The late subscription's initial answer held the hand-inserted entry.
  ASSERT_FALSE(late.answers.empty());
  EXPECT_EQ(late.answers[0].tuples.size(), 6u);
}

// A subscription whose head drops a variable of its atom can derive one
// answer from several entries; it keeps last_sent and never ships an answer
// twice.
TEST(UpdateTest, DroppedVariableSubscriptionNeverShipsAnAnswerTwice) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(k, v); fact b("k1", "v0"); }
node C { rel c(k, v); }
rule r: C.c(K, V) => B.b(K, V);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  AnswerSink sink;
  rt.RegisterPeer(0, &sink);
  Peer b(1, "B", system->node(1).db, &rt);
  ASSERT_TRUE(b.AddInitialRule(system->rules().at(0)).ok());
  b.StartUpdate(1);
  b.update().OnQueryRequest(0, Watch("b", {"K", "V"}, {"K"}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k1", "v1"}, {"k2", "v2"}}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k2", "v3"}, {"k3", "v4"}}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"k1", "v5"}, {"k3", "v6"}}));
  ASSERT_TRUE(rt.Run().ok());

  EXPECT_EQ(b.db().relation("b").size(), 7u);
  EXPECT_EQ(Received(sink), Rows({"k1", "k2", "k3"}));
  // The last application derived only answers already shipped.
  EXPECT_EQ(sink.answers.size(), 3u);
}

// A subscription that joins a relation with itself has two atoms over one
// relation, so both seed from the subscription's one version row. While the
// relation grows over several chase applications, with one row landing
// between an application and the next notify, it ships exactly a fresh
// evaluation's answers, each once.
TEST(UpdateTest, SelfJoinSubscriptionShipsFreshEvaluationOnce) {
  const char* text = R"(
node A { rel a(x, z); }
node B { rel e(x, y); fact e("n1", "n2"); }
node C { rel c(x, y); }
rule r: C.c(X, Y) => B.e(X, Y);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  AnswerSink sink;
  rt.RegisterPeer(0, &sink);
  Peer b(1, "B", system->node(1).db, &rt);
  ASSERT_TRUE(b.AddInitialRule(system->rules().at(0)).ok());
  b.StartUpdate(1);

  // paths(X, Z) :- e(X, Y), e(Y, Z).
  wire::QueryRequest paths;
  paths.session = 1;
  paths.rule_id = "paths";
  rel::Atom first;
  first.relation = "e";
  first.terms = {rel::Term::Var("X"), rel::Term::Var("Y")};
  rel::Atom second;
  second.relation = "e";
  second.terms = {rel::Term::Var("Y"), rel::Term::Var("Z")};
  paths.query.atoms = {first, second};
  paths.query.head_vars = {"X", "Z"};
  b.update().OnQueryRequest(0, paths);

  b.update().OnQueryAnswer(2, PairAnswer("r", {{"n2", "n3"}}));
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"n3", "n4"}, {"n1", "n3"}}));
  ASSERT_TRUE(b.db().Insert("e", rel::Tuple({S("n4"), S("n1")})).ok());
  b.update().OnQueryAnswer(2, PairAnswer("r", {{"n4", "n5"}, {"n2", "n2"}}));
  ASSERT_TRUE(rt.Run().ok());

  EXPECT_EQ(b.db().relation("e").size(), 7u);
  const std::vector<rel::Tuple> shipped = Received(sink);
  const std::set<rel::Tuple> once(shipped.begin(), shipped.end());
  EXPECT_EQ(once.size(), shipped.size()) << "an answer shipped twice";
  auto fresh = rel::EvaluateQuery(b.db(), paths.query);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(once, *fresh);
  EXPECT_EQ(sink.answers.size(), 4u);  // The initial answer and three deltas.
}

// A single-part rule keeps no part log, so rows it has seen before re-apply
// its head. The head is idempotent: a head that receives the first rows
// again with the rest ends with the database of a head that received every
// row once, in delta and full-answer mode and under either chase policy.
// A repeat inside a delta (as a re-subscription's first answer repeats
// every row) counts as a skipped application. A full answer repeats its
// subscription's previous answer as its first rows, which the head skips
// unapplied, unless that answer was rejected.
TEST(UpdateTest, SinglePartRuleRepeatChangesNothing) {
  const char* text = R"(
node R { rel rec(a, t); }
node P { rel pub(i, t, y); rel wrote(a, i); rel seen(a, t); }
rule x: R.rec(A, T) => P.pub(I, T, Y), P.wrote(A, I);
rule s: R.rec(A, T) => P.seen(A, T);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const std::vector<rel::Tuple> recs = {
      rel::Tuple({S("alice"), S("t1")}), rel::Tuple({S("bob"), S("t1")}),
      rel::Tuple({S("carol"), S("t2")}), rel::Tuple({S("dave"), S("t3")}),
      rel::Tuple({S("erin"), S("t2")})};
  const std::vector<rel::Tuple> first(recs.begin(), recs.begin() + 3);
  const std::vector<rel::Tuple> malformed = {rel::Tuple({S("alice")})};
  struct Batch {
    std::vector<rel::Tuple> rows;
    bool is_delta;
  };
  struct Case {
    const char* name;
    bool delta_mode;
    std::vector<Batch> batches;
    size_t repeats_applied;  // Per rule.
    uint64_t joins;          // Per rule.
  };
  const std::vector<Case> cases = {
      // Delta mode, re-subscribed after the first answer: `first` repeats in
      // the second subscription's first answer and again inside recs.
      {"delta", true, {{first, true}, {first, true}, {recs, true}}, 6, 3},
      // Full mode, re-subscribed after the first answer: the second
      // subscription's first answer (a delta) repeats `first`, and its full
      // answer repeats that answer first.
      {"full, re-subscribed", false,
       {{first, true}, {first, true}, {recs, false}}, 3, 3},
      // Full mode, one subscription: each full answer repeats the last one.
      {"full", false, {{first, true}, {first, false}, {recs, false}}, 0, 2},
      // A rejected answer leaves nothing known, so the next full answer is
      // applied whole.
      {"full, after a rejected answer", false,
       {{first, true}, {malformed, false}, {recs, false}}, 3, 2},
  };
  for (const Case& c : cases) {
    for (rel::ChasePolicy policy : {rel::ChasePolicy::kProjectionCheck,
                                    rel::ChasePolicy::kHomomorphismCheck}) {
      SCOPED_TRACE(::testing::Message()
                   << c.name << ", policy " << static_cast<int>(policy));
      // Feeds each batch to both rules; returns the head's database.
      auto run = [&](const std::vector<Batch>& batches,
                     UpdateEngine::Stats* stats) {
        net::SimRuntime rt;  // Never run: answers are fed by hand.
        Peer::Config config;
        config.update.delta_answers = c.delta_mode;
        config.update.chase.policy = policy;
        Peer head(1, "P", system->node(1).db, &rt, config);
        for (const CoordinationRule& rule : system->rules()) {
          EXPECT_TRUE(head.AddInitialRule(rule).ok());
        }
        head.StartUpdate(1);
        ScopedLogCapture capture;  // The rejected answer's warnings.
        for (const Batch& batch : batches) {
          for (const char* rule : {"x", "s"}) {
            wire::QueryAnswer ans;
            ans.session = 1;
            ans.rule_id = rule;
            ans.is_delta = batch.is_delta;
            ans.tuples = batch.rows;
            head.update().OnQueryAnswer(0, ans);
          }
        }
        *stats = head.update().stats();
        return head.db();
      };
      UpdateEngine::Stats once_stats;
      UpdateEngine::Stats again_stats;
      const rel::Database once = run({{recs, true}}, &once_stats);
      const rel::Database again = run(c.batches, &again_stats);
      EXPECT_TRUE(again == once) << "once:\n" << once.ToString()
                                 << "\nagain:\n" << again.ToString();
      EXPECT_EQ(once.relation("seen").size(), recs.size());
      EXPECT_EQ(again_stats.tuples_inserted, once_stats.tuples_inserted);
      EXPECT_EQ(again_stats.applications_skipped,
                once_stats.applications_skipped + 2 * c.repeats_applied);
      EXPECT_EQ(again_stats.joins_evaluated, 2 * c.joins);
    }
  }
}

// A chase application that inserted tuples and then failed still changed
// the database, so its tuples reach the head's subscribers in the same
// dispatch. Here the head's null factory runs out after the first binding
// of a non-final answer.
TEST(UpdateTest, PartlyFailedApplicationNotifiesSubscribers) {
  const char* text = R"(
node A { rel a(x); }
node B { rel b(k, v); }
node C { rel c(k); }
rule r: C.c(K) => B.b(K, V);
)";
  auto system = lang::ParseSystem(text);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  AnswerSink sink;
  rt.RegisterPeer(0, &sink);
  Peer b(1, "B", system->node(1).db, &rt);
  ASSERT_TRUE(b.AddInitialRule(system->rules().at(0)).ok());
  b.StartUpdate(1);
  b.update().OnQueryRequest(0, Watch("b", {"K", "V"}, {"K", "V"}));
  b.nulls().ReserveThrough(0xfffffe);  // One null left to mint.

  wire::QueryAnswer from_c;
  from_c.session = 1;
  from_c.rule_id = "r";
  from_c.tuples = Rows({"k1", "k2"});
  const uint64_t sent = b.update().stats().answers_sent;
  {
    ScopedLogCapture capture;
    b.update().OnQueryAnswer(2, from_c);
    EXPECT_EQ(capture.lines().size(), 1u);  // The chase error.
  }
  EXPECT_EQ(b.update().stats().answers_sent, sent + 1);
  EXPECT_EQ(b.update().stats().tuples_inserted, 1u);
  const rel::LogView log = b.db().relation("b").View();
  ASSERT_EQ(log.size(), 1u);
  ASSERT_TRUE(rt.Run().ok());
  ASSERT_EQ(sink.answers.size(), 2u);  // The initial answer, then the tuple.
  EXPECT_EQ(sink.answers[1].tuples, rel::RowList({rel::Tuple(log.at(0))}));
  EXPECT_FALSE(sink.answers[1].source_closed);
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
  EXPECT_EQ(forward.relation("wrote").size(), 5u);
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
