// Section 4: dynamic networks. addLink/deleteLink during the run, Definition 9
// sound/complete envelope, Theorem 2 termination, Theorem 3 separation.
#include "src/core/dynamics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"
#include "src/relational/null_iso.h"
#include "src/util/log_capture.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }

// A chain A <- B <- C (A pulls from B pulls from C) with data at C, plus a
// detached node D with data.
Result<P2PSystem> ChainWithSpare() {
  return lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); fact c("c1"); fact c("c2"); }
node D { rel d(x); fact d("d1"); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => B.b(X);
)");
}

CoordinationRule RuleDFromSystem(const P2PSystem& system) {
  // addLink: A additionally pulls from D (rule r3: D.d(X) => A.a(X)).
  CoordinationRule rule;
  rule.id = "r3";
  rule.head_node = *system.NodeByName("A");
  rel::Atom head;
  head.relation = "a";
  head.terms = {rel::Term::Var("X")};
  rule.head_atoms = {head};
  CoordinationRule::BodyPart part;
  part.node = *system.NodeByName("D");
  rel::Atom body;
  body.relation = "d";
  body.terms = {rel::Term::Var("X")};
  part.atoms = {body};
  rule.body = {part};
  return rule;
}

TEST(DynamicsTest, AddLinkDuringRunDeliversNewData) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  // Schedule the addLink to arrive mid-update (latency is ~1ms per hop).
  AtomicChange add = AtomicChange::Add(1500, RuleDFromSystem(*system));
  session.ScheduleChange(add);
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  const rel::Relation* a = &session.peer(0).db().relation("a");
  EXPECT_TRUE(a->Contains(rel::Tuple({S("d1")})));  // New link's data arrived.
  EXPECT_TRUE(a->Contains(rel::Tuple({S("c1")})));  // Old data kept.
}

TEST(DynamicsTest, ChangeFiresAtOffsetFromUpdateStart) {
  // A change's time is an offset from the start of the call that delivers
  // it, so a deleteLink queued after discovery for 500 us into the update
  // arrives after the update's first message, not when discovery ended.
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  std::vector<std::pair<uint64_t, net::MessageType>> delivered;
  rt.set_tracer([&](uint64_t time_micros, const net::Message& msg) {
    delivered.emplace_back(time_micros, msg.type);
  });
  const uint64_t start = rt.NowMicros();
  session.ScheduleChange(
      AtomicChange::Delete(500, *system->NodeByName("B"), "r2"));
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  auto change = std::find_if(delivered.begin(), delivered.end(), [](auto& d) {
    return d.second == net::MessageType::kDeleteRule;
  });
  ASSERT_NE(change, delivered.end());
  EXPECT_GT(change - delivered.begin(), 0)
      << "the change arrived before the update's first message";
  EXPECT_GE(change->first, start + 500);
}

/// A TcpRuntime that notes, on its own clock, when a handler first ran an
/// addRule notification.
class ClockedTcpRuntime : public net::TcpRuntime {
 public:
  explicit ClockedTcpRuntime(Options options)
      : TcpRuntime(std::move(options)) {}
  /// The reactor workers call the wrappers: stop them before those die.
  ~ClockedTcpRuntime() override { Shutdown(); }

  /// Called from the test's thread only (the session registers its peers).
  void RegisterPeer(NodeId id, net::PeerHandler* handler) override {
    wrappers_.push_back(std::make_unique<Clocked>(this, handler));
    TcpRuntime::RegisterPeer(id, wrappers_.back().get());
  }

  /// NowMicros() when an addRule first reached a handler; 0 if none has.
  uint64_t AddRuleLandedAt() const { return add_rule_at_.load(); }

 private:
  class Clocked : public net::PeerHandler {
   public:
    Clocked(ClockedTcpRuntime* owner, net::PeerHandler* inner)
        : owner_(owner), inner_(inner) {}
    void OnMessage(const net::Message& msg) override {
      uint64_t none = 0;
      if (msg.type == net::MessageType::kAddRule) {
        owner_->add_rule_at_.compare_exchange_strong(none, owner_->NowMicros());
      }
      inner_->OnMessage(msg);
    }

   private:
    ClockedTcpRuntime* owner_;
    net::PeerHandler* inner_;
  };

  std::vector<std::unique_ptr<Clocked>> wrappers_;
  std::atomic<uint64_t> add_rule_at_{0};
};

TEST(DynamicsTest, AddLinkLandsMidUpdateOverTcp) {
  // The same clock on sockets: the session's run loop sleeps until the
  // update's start plus the change's offset, then sends the addRule through
  // the reactor, and the update still converges inside the Definition 9
  // envelope.
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::TcpRuntime::Options options;
  options.io_workers = 2;
  ClockedTcpRuntime rt(options);
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  constexpr uint64_t kOffset = 2'000;
  ChangeScript changes = {AtomicChange::Add(kOffset, RuleDFromSystem(*system))};
  session.ScheduleChange(changes[0]);
  const uint64_t start = rt.NowMicros();
  ASSERT_TRUE(session.RunUpdate().ok());

  const uint64_t landed = rt.AddRuleLandedAt();
  ASSERT_NE(landed, 0u) << "the addRule never reached its head";
  EXPECT_GE(landed, start + kOffset);
  std::set<NodeId> open;
  EXPECT_TRUE(session.AllClosed(&open)) << open.size() << " nodes open";
  EXPECT_EQ(session.peer(0).rules().size(), 2u);  // r1 and r3.
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("d1")})));
  auto envelope = ComputeEnvelope(*system, changes, rel::ChaseOptions{});
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_TRUE(WithinEnvelope(session.SnapshotDatabases(), *envelope));
}

TEST(DynamicsTest, AddLinkReopensClosedNode) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  // Network is quiescent and closed; now add the link.
  AtomicChange add = AtomicChange::Add(10, RuleDFromSystem(*system));
  session.ScheduleChange(add);
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.AllClosed());  // Re-closed after the reopen wave.
  EXPECT_GT(session.peer(0).update().stats().reopens, 0u);
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("d1")})));
}

TEST(DynamicsTest, DeleteLinkKeepsDataAndCloses) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  // Delete r2 (B <- C) shortly after the update starts.
  session.ScheduleChange(
      AtomicChange::Delete(500, *system->NodeByName("B"), "r2"));
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  // Data already moved is never retracted (monotonicity).
  const rel::Relation* b = &session.peer(1).db().relation("b");
  EXPECT_LE(b->size(), 2u);
}

TEST(DynamicsTest, DeleteLinkResumesPausedTokenRing) {
  // A and B form a non-trivial SCC; B additionally pulls from X, which is
  // crashed, so B can never become externally ready and the ring leader
  // pauses after repeated identical rounds (it would otherwise pass tokens
  // forever). A mid-run deleteLink of the dead rule flips B to ready with no
  // intra-SCC traffic the leader could observe — B's readiness poke must
  // wake the paused ring, or the session never closes.
  auto system = lang::ParseSystem(R"(
node A { rel a(x); fact a("a1"); }
node B { rel b(x); }
node X { rel w(x); fact w("x1"); }
rule ra: B.b(X) => A.a(X);
rule rb: A.a(X) => B.b(X);
rule rx: X.w(X) => B.b(X);
)");
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ScopedLogCapture quiet;  // Drops to the crashed peer are expected.
  ASSERT_TRUE(session.CrashPeer(*system->NodeByName("X")).ok());
  session.ScheduleChange(
      AtomicChange::Delete(50'000, *system->NodeByName("B"), "rx"));
  ASSERT_TRUE(session.RunUpdate().ok());
  EXPECT_TRUE(session.AllClosed());
  EXPECT_TRUE(
      session.peer(1).db().relation("b").Contains(rel::Tuple({S("a1")})));
}

TEST(DynamicsTest, FinalStateWithinDefinition9Envelope) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  ChangeScript changes = {
      AtomicChange::Add(1200, RuleDFromSystem(*system)),
      AtomicChange::Delete(1800, *system->NodeByName("B"), "r2"),
  };
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  for (const AtomicChange& c : changes) session.ScheduleChange(c);
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());

  auto envelope = ComputeEnvelope(*system, changes, rel::ChaseOptions{});
  ASSERT_TRUE(envelope.ok()) << envelope.status().ToString();
  EXPECT_TRUE(WithinEnvelope(session.SnapshotDatabases(), *envelope));
}

TEST(DynamicsTest, EnvelopeBoundsAreOrdered) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  ChangeScript changes = {
      AtomicChange::Add(0, RuleDFromSystem(*system)),
      AtomicChange::Delete(0, *system->NodeByName("B"), "r2"),
  };
  auto envelope = ComputeEnvelope(*system, changes, rel::ChaseOptions{});
  ASSERT_TRUE(envelope.ok());
  // lower ⊆ upper by construction.
  for (size_t n = 0; n < envelope->lower.size(); ++n) {
    EXPECT_TRUE(rel::DatabaseHomomorphicallyContained(envelope->lower[n],
                                                      envelope->upper[n]));
  }
}

TEST(DynamicsTest, ApplyChangesRespectsFlags) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  ChangeScript changes = {
      AtomicChange::Add(0, RuleDFromSystem(*system)),
      AtomicChange::Delete(0, *system->NodeByName("B"), "r2"),
  };
  auto adds_only = ApplyChanges(*system, changes, true, false);
  ASSERT_TRUE(adds_only.ok());
  EXPECT_EQ(adds_only->rules().size(), 3u);
  auto deletes_only = ApplyChanges(*system, changes, false, true);
  ASSERT_TRUE(deletes_only.ok());
  EXPECT_EQ(deletes_only->rules().size(), 1u);
}

TEST(DynamicsTest, SeparationDefinition10UnderChange) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  NodeId a = *system->NodeByName("A");
  NodeId b = *system->NodeByName("B");
  NodeId c = *system->NodeByName("C");
  NodeId d = *system->NodeByName("D");

  // Without changes, {A,B,C} is separated from {D}.
  EXPECT_TRUE(IsSeparatedUnderChange(*system, {}, {a, b, c}, {d}));
  // The addLink A<-D breaks the separation.
  ChangeScript with_add = {AtomicChange::Add(0, RuleDFromSystem(*system))};
  EXPECT_FALSE(IsSeparatedUnderChange(*system, with_add, {a, b, c}, {d}));
  // D stays separated from the chain either way (no outgoing edges).
  EXPECT_TRUE(IsSeparatedUnderChange(*system, with_add, {d}, {b, c}));
}

TEST(DynamicsTest, SeparatedSubnetClosesDespiteChurnElsewhere) {
  // Two disjoint chains: A<-B (with data at B) and X<-Y. Churn hits X<-Y
  // repeatedly; {A,B} is separated from {X,Y} w.r.t. the change script and
  // must close regardless (Theorem 3).
  auto system = lang::ParseSystem(R"(
node A { rel a(v); }
node B { rel b(v); fact b("b1"); }
node X { rel x(v); }
node Y { rel y(v); fact y("y1"); }
rule ra: B.b(V) => A.a(V);
rule rx: Y.y(V) => X.x(V);
)");
  ASSERT_TRUE(system.ok());
  NodeId x = *system->NodeByName("X");

  // Churn: repeatedly delete and re-add rule rx.
  auto rx = **system->RuleById("rx");
  ChangeScript churn;
  for (int i = 0; i < 5; ++i) {
    churn.push_back(
        AtomicChange::Delete(1000 + i * 2000, x, "rx"));
    CoordinationRule readd = rx;
    readd.id = "rx";  // Same id re-added.
    churn.push_back(AtomicChange::Add(2000 + i * 2000, readd));
  }
  EXPECT_TRUE(IsSeparatedUnderChange(
      *system, churn, {*system->NodeByName("A"), *system->NodeByName("B")},
      {x, *system->NodeByName("Y")}));

  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  for (const AtomicChange& c : churn) session.ScheduleChange(c);
  ASSERT_TRUE(session.RunUpdate().ok());
  // The separated pair closed with the right data.
  EXPECT_EQ(session.peer(0).update().state(), UpdateEngine::State::kClosed);
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("b1")})));
}

TEST(DynamicsTest, AddRuleBeforeSessionIsPickedUpAtStart) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  // Change delivered before any update session exists.
  session.ScheduleChange(AtomicChange::Add(10, RuleDFromSystem(*system)));
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  EXPECT_TRUE(
      session.peer(0).db().relation("a").Contains(rel::Tuple({S("d1")})));
}

TEST(DynamicsTest, DuplicateAddRuleNotificationIgnored) {
  auto system = ChainWithSpare();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  session.ScheduleChange(AtomicChange::Add(10, RuleDFromSystem(*system)));
  session.ScheduleChange(AtomicChange::Add(20, RuleDFromSystem(*system)));
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  EXPECT_EQ(session.peer(0).rules().size(), 2u);  // r1 and r3 once.
}

}  // namespace
}  // namespace p2pdb::core
