// Section 5 super-peer operations: broadcasting a coordination-rule file that
// reconfigures the network at run time.
#include <gtest/gtest.h>

#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"

namespace p2pdb::lang {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }

// Nodes with schemas but no rules: the super-peer wires them up later.
Result<core::P2PSystem> BareNodes() {
  return ParseSystem(R"(
node Hub { rel all(v); }
node SrcA { rel a(v); fact a("alpha"); }
node SrcB { rel b(v); fact b("beta"); }
)");
}

TEST(BroadcastTest, ParseRulesResolvesAgainstSystem) {
  auto system = BareNodes();
  ASSERT_TRUE(system.ok());
  auto rules = ParseRules(*system, R"(
rule ra: SrcA.a(V) => Hub.all(V);
rule rb: SrcB.b(V) => Hub.all(V);
)");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 2u);
  EXPECT_EQ((*rules)[0].head_node, *system->NodeByName("Hub"));
  EXPECT_EQ((*rules)[1].body[0].node, *system->NodeByName("SrcB"));
}

TEST(BroadcastTest, ParseRulesRejectsUnknownNodesAndNonRules) {
  auto system = BareNodes();
  ASSERT_TRUE(system.ok());
  EXPECT_FALSE(ParseRules(*system, "rule r: Ghost.g(V) => Hub.all(V);").ok());
  EXPECT_FALSE(ParseRules(*system, "node X { rel x(v); }").ok());
}

TEST(BroadcastTest, BroadcastWiresUpNetworkAtRuntime) {
  auto system = BareNodes();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  core::Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());

  auto script = BroadcastRules(*system, &session, R"(
rule ra: SrcA.a(V) => Hub.all(V);
rule rb: SrcB.b(V) => Hub.all(V);
)",
                               /*at_micros=*/100);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->size(), 2u);

  // Deliver the broadcast, re-discover (topology changed), then update.
  ASSERT_TRUE(session.Run().ok());
  ASSERT_TRUE(session.Rediscover().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());

  const rel::Relation* all = &session.peer(0).db().relation("all");
  EXPECT_EQ(all->size(), 2u);
  EXPECT_TRUE(all->Contains(rel::Tuple({S("alpha")})));
  EXPECT_TRUE(all->Contains(rel::Tuple({S("beta")})));
}

TEST(BroadcastTest, BroadcastDuringSessionReopens) {
  auto system = BareNodes();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  core::Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  // Hub starts with no rules: closes instantly.
  ASSERT_TRUE(session.RunUpdate().ok());
  EXPECT_EQ(session.peer(0).update().state(),
            core::UpdateEngine::State::kClosed);

  auto script = BroadcastRules(*system, &session,
                               "rule ra: SrcA.a(V) => Hub.all(V);",
                               /*at_micros=*/50);
  ASSERT_TRUE(script.ok());
  ASSERT_TRUE(session.Run().ok());
  // The addLink re-opened and re-closed the hub with the new data.
  EXPECT_EQ(session.peer(0).update().state(),
            core::UpdateEngine::State::kClosed);
  EXPECT_GE(session.peer(0).update().stats().reopens, 1u);
  EXPECT_TRUE(
      session.peer(0).db().relation("all").Contains(rel::Tuple({S("alpha")})));
}

}  // namespace
}  // namespace p2pdb::lang
