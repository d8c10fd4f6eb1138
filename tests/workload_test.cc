#include <gtest/gtest.h>

#include "src/core/dependency.h"
#include "src/workload/dblp.h"
#include "src/workload/rulegen.h"
#include "src/workload/scenario.h"
#include "src/workload/topology.h"

namespace p2pdb::workload {
namespace {

TEST(TopologyTest, TreeShape) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kTree;
  spec.nodes = 7;
  spec.fanout = 2;
  auto edges = GenerateTopology(spec);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->size(), 6u);  // n-1 edges.
  // Every non-root node has exactly one parent.
  std::map<NodeId, int> indegree;
  for (const Edge& e : *edges) indegree[e.second]++;
  for (NodeId n = 1; n < 7; ++n) EXPECT_EQ(indegree[n], 1) << n;
  EXPECT_EQ(TopologyDepth(*edges), 2u);  // Balanced binary tree of 7.
}

TEST(TopologyTest, ChainDepthIsNodesMinusOne) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kChain;
  spec.nodes = 9;
  auto edges = GenerateTopology(spec);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(TopologyDepth(*edges), 8u);
}

TEST(TopologyTest, CliqueHasAllOrderedPairs) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kClique;
  spec.nodes = 5;
  auto edges = GenerateTopology(spec);
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(edges->size(), 20u);
}

TEST(TopologyTest, RingIsCyclic) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kRing;
  spec.nodes = 4;
  auto edges = GenerateTopology(spec);
  ASSERT_TRUE(edges.ok());
  std::set<core::Edge> set(edges->begin(), edges->end());
  core::DependencyGraph g(set);
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_EQ(g.SccOf(0).size(), 4u);
}

TEST(TopologyTest, EveryKindReachableFromSuperPeer) {
  for (auto kind : {TopologySpec::Kind::kTree, TopologySpec::Kind::kLayeredDag,
                    TopologySpec::Kind::kClique, TopologySpec::Kind::kChain,
                    TopologySpec::Kind::kRing, TopologySpec::Kind::kRandom}) {
    TopologySpec spec;
    spec.kind = kind;
    spec.nodes = 12;
    auto edges = GenerateTopology(spec);
    ASSERT_TRUE(edges.ok());
    std::set<core::Edge> set(edges->begin(), edges->end());
    core::DependencyGraph g(set);
    std::set<NodeId> reach = g.ReachableFrom(0);
    reach.insert(0);
    EXPECT_EQ(reach.size(), 12u) << TopologyKindName(kind);
  }
}

TEST(TopologyTest, LayeredDagIsAcyclic) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kLayeredDag;
  spec.nodes = 13;
  spec.layers = 4;
  auto edges = GenerateTopology(spec);
  ASSERT_TRUE(edges.ok());
  std::set<core::Edge> set(edges->begin(), edges->end());
  EXPECT_TRUE(core::DependencyGraph(set).IsAcyclic());
  EXPECT_EQ(TopologyDepth(*edges), 3u);  // layers - 1.
}

TEST(TopologyTest, DeterministicForSeed) {
  TopologySpec spec;
  spec.kind = TopologySpec::Kind::kRandom;
  spec.nodes = 10;
  spec.seed = 5;
  auto a = GenerateTopology(spec);
  auto b = GenerateTopology(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  spec.seed = 6;
  auto c = GenerateTopology(spec);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(*a, *c);
}

TEST(TopologyTest, RejectsDegenerateSpecs) {
  TopologySpec spec;
  spec.nodes = 1;
  EXPECT_FALSE(GenerateTopology(spec).ok());
}

TEST(DblpTest, RecordsAreDeterministicAndWellFormed) {
  Rng rng1(3), rng2(3);
  auto a = GeneratePubs(100, 50, 10, &rng1);
  auto b = GeneratePubs(100, 50, 10, &rng2);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, 100 + static_cast<int64_t>(i));
    EXPECT_EQ(a[i].title, b[i].title);
    EXPECT_EQ(a[i].author, b[i].author);
    EXPECT_GE(a[i].year, 1990);
    EXPECT_LE(a[i].year, 2004);
  }
}

TEST(DblpTest, SchemaStylesMaterializeCorrectArity) {
  Rng rng(3);
  auto records = GeneratePubs(0, 5, 4, &rng);
  for (SchemaStyle style : {SchemaStyle::kArticle, SchemaStyle::kPubWrote,
                            SchemaStyle::kRec}) {
    rel::Database db = MakeNodeSchema(3, style);
    ASSERT_TRUE(InsertRecords(&db, 3, style, records).ok());
    switch (style) {
      case SchemaStyle::kArticle:
        EXPECT_EQ(db.relation("n3_art").size(), 5u);
        break;
      case SchemaStyle::kPubWrote:
        EXPECT_EQ(db.relation("n3_pub").size(), 5u);
        EXPECT_EQ(db.relation("n3_wrote").size(), 5u);
        break;
      case SchemaStyle::kRec:
        EXPECT_EQ(db.relation("n3_rec").size(), 5u);
        break;
    }
  }
}

TEST(RulegenTest, AllNineStylePairsValidate) {
  // Build a 9-node system covering every (head, body) style pair and check
  // P2PSystem validation accepts every generated rule.
  core::P2PSystem system;
  Rng rng(1);
  auto records = GeneratePubs(0, 2, 4, &rng);
  for (NodeId n = 0; n < 9; ++n) {
    SchemaStyle style = StyleForNode(n);
    rel::Database db = MakeNodeSchema(n, style);
    ASSERT_TRUE(InsertRecords(&db, n, style, records).ok());
    ASSERT_TRUE(system.AddNode("N" + std::to_string(n), std::move(db)).ok());
  }
  int seq = 0;
  for (NodeId head = 0; head < 3; ++head) {
    for (NodeId body = 3; body < 6; ++body) {
      auto rule = MakeTranslationRule("t" + std::to_string(seq++), head,
                                      StyleForNode(head), body,
                                      StyleForNode(body));
      EXPECT_TRUE(system.AddRule(rule).ok())
          << SchemaStyleName(StyleForNode(head)) << " <- "
          << SchemaStyleName(StyleForNode(body));
    }
  }
}

TEST(RulegenTest, RecToPubWroteHasSharedExistential) {
  auto rule = MakeTranslationRule("r", 1, SchemaStyle::kPubWrote, 2,
                                  SchemaStyle::kRec);
  auto existentials = rule.ExistentialVars();
  // I (the id) and Y (the year) are invented; I is shared across head atoms.
  EXPECT_EQ(existentials, (std::vector<std::string>{"I", "Y"}));
  ASSERT_EQ(rule.head_atoms.size(), 2u);
}

TEST(RulegenTest, SameStyleIsCopyRule) {
  auto rule = MakeTranslationRule("r", 0, SchemaStyle::kArticle, 3,
                                  SchemaStyle::kArticle);
  EXPECT_TRUE(rule.ExistentialVars().empty());
  EXPECT_EQ(rule.head_atoms.size(), 1u);
  EXPECT_EQ(rule.body.size(), 1u);
}

TEST(ScenarioTest, BuildsValidSystem) {
  ScenarioOptions options;
  options.topology.nodes = 9;
  options.records_per_node = 10;
  auto system = BuildScenario(options);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ(system->node_count(), 9u);
  EXPECT_EQ(system->rules().size(), 8u);  // One per tree edge.
  // Every node got its base records.
  for (NodeId n = 0; n < 9; ++n) {
    EXPECT_GE(system->node(n).db.TotalTuples(), 10u);
  }
}

TEST(ScenarioTest, OverlapIncreasesSharedData) {
  ScenarioOptions no_overlap;
  no_overlap.topology.nodes = 7;
  no_overlap.records_per_node = 10;
  no_overlap.link_overlap_prob = 0.0;
  ScenarioOptions with_overlap = no_overlap;
  with_overlap.link_overlap_prob = 1.0;

  auto a = BuildScenario(no_overlap);
  auto b = BuildScenario(with_overlap);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  size_t tuples_a = 0, tuples_b = 0;
  for (NodeId n = 0; n < 7; ++n) {
    tuples_a += a->node(n).db.TotalTuples();
    tuples_b += b->node(n).db.TotalTuples();
  }
  EXPECT_GT(tuples_b, tuples_a);  // Copied overlap records add tuples.
}

TEST(ScenarioTest, RunningExampleParses) {
  auto system = MakeRunningExample();
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  EXPECT_EQ(system->node_count(), 5u);
  EXPECT_EQ(system->rules().size(), 7u);
}

TEST(ScenarioTest, GeneratedRulesAreWeaklyAcyclicOnTrees) {
  ScenarioOptions options;
  options.topology.nodes = 9;
  auto system = BuildScenario(options);
  ASSERT_TRUE(system.ok());
  EXPECT_TRUE(core::RulesAreWeaklyAcyclic(system->rules()));
}

}  // namespace
}  // namespace p2pdb::workload
