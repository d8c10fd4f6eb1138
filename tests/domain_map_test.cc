// Domain relations (the paper's named future work): constant translation
// across coordination rules.
#include "src/core/domain_map.h"

#include <gtest/gtest.h>

#include "src/core/acyclic_pull.h"
#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/core/wire.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"

namespace p2pdb::core {
namespace {

rel::Value S(const char* s) { return rel::Value::Str(s); }

TEST(DomainMapTest, ApplyIdentityAndMapping) {
  DomainMap map;
  map.Add(S("de"), S("germany"));
  EXPECT_EQ(map.Apply(S("de")), S("germany"));
  EXPECT_EQ(map.Apply(S("fr")), S("fr"));       // Unmapped: identity.
  EXPECT_EQ(map.Apply(rel::Value::Int(3)), rel::Value::Int(3));
  rel::Value null = rel::Value::Null(9);
  EXPECT_EQ(map.Apply(null), null);             // Nulls never remap.
}

TEST(DomainMapTest, TupleAndSetMapping) {
  DomainMap map;
  map.Add(S("a"), S("b"));
  rel::Tuple t({S("a"), S("x")});
  EXPECT_EQ(map.ApplyToTuple(t), rel::Tuple({S("b"), S("x")}));
  // Images may collide: the set shrinks.
  std::set<rel::Tuple> in{rel::Tuple({S("a")}), rel::Tuple({S("b")})};
  EXPECT_EQ(map.ApplyToSet(in).size(), 1u);
}

TEST(DomainMapTest, Composition) {
  DomainMap first, second;
  first.Add(S("a"), S("b"));
  second.Add(S("b"), S("c"));
  second.Add(S("z"), S("w"));
  DomainMap composed = first.ComposeWith(second);
  EXPECT_EQ(composed.Apply(S("a")), S("c"));
  EXPECT_EQ(composed.Apply(S("z")), S("w"));  // Inherited entry.
}

TEST(DomainMapTest, CodecRoundTrip) {
  // A map travels inside its rule, as in an addLink notification.
  wire::AddRuleChange change;
  change.rule.id = "r";
  change.rule.head_node = 0;
  change.rule.domain_map.Add(S("x"), S("y"));
  change.rule.domain_map.Add(rel::Value::Int(1), rel::Value::Int(2));
  auto back = wire::AddRuleChange::Decode(change.Encode());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->rule.domain_map == change.rule.domain_map);
}

// A source whose country codes differ from the consumer's vocabulary: the
// rule's domain relation translates them in flight.
Result<P2PSystem> TranslationSystem() {
  auto system = lang::ParseSystem(R"(
node Consumer { rel city(name, country); }
node Source {
  rel town(name, cc);
  fact town("berlin", "de");
  fact town("paris", "fr");
  fact town("lyon", "fr");
}
rule import: Source.town(N, C) => Consumer.city(N, C);
)");
  if (!system.ok()) return system.status();
  // Attach the domain relation to the rule.
  P2PSystem out = std::move(*system);
  const_cast<CoordinationRule&>(out.rules()[0]).domain_map.Add(
      S("de"), S("germany"));
  const_cast<CoordinationRule&>(out.rules()[0]).domain_map.Add(
      S("fr"), S("france"));
  return out;
}

TEST(DomainMapTest, DistributedUpdateTranslatesConstants) {
  auto system = TranslationSystem();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  const rel::Relation* city = &session.peer(0).db().relation("city");
  EXPECT_EQ(city->size(), 3u);
  EXPECT_TRUE(city->Contains(rel::Tuple({S("berlin"), S("germany")})));
  EXPECT_TRUE(city->Contains(rel::Tuple({S("paris"), S("france")})));
  EXPECT_FALSE(city->Contains(rel::Tuple({S("berlin"), S("de")})));
}

TEST(DomainMapTest, BaselinesAgreeOnTranslation) {
  auto system = TranslationSystem();
  ASSERT_TRUE(system.ok());

  auto global = ComputeGlobalFixpoint(*system, rel::ChaseOptions{});
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  EXPECT_TRUE(global->node_dbs[0].relation("city").Contains(
      rel::Tuple({S("berlin"), S("germany")})));

  auto pull = RunAcyclicPull(*system, rel::ChaseOptions{});
  ASSERT_TRUE(pull.ok());
  EXPECT_TRUE(pull->node_dbs[0].relation("city").Contains(
      rel::Tuple({S("paris"), S("france")})));

  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  for (NodeId n = 0; n < 2; ++n) {
    EXPECT_TRUE(rel::DatabasesCertainEqual(session.peer(n).db(),
                                           global->node_dbs[n]))
        << "node " << n;
  }
}

TEST(DomainMapTest, RuleCodecCarriesDomainMap) {
  auto system = TranslationSystem();
  ASSERT_TRUE(system.ok());
  wire::AddRuleChange change{system->rules()[0]};
  auto back = wire::AddRuleChange::Decode(change.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->rule.domain_map == system->rules()[0].domain_map);
}

}  // namespace
}  // namespace p2pdb::core
