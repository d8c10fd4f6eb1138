#include "src/core/dependency.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

// The running example's dependency edges (Section 2): derived from rules
// r1..r7 with nodes A=0, B=1, C=2, D=3, E=4.
DependencyGraph ExampleGraph() {
  DependencyGraph g;
  g.AddEdge(1, 4);  // r1: B depends on E
  g.AddEdge(2, 1);  // r2: C on B
  g.AddEdge(1, 2);  // r3: B on C
  g.AddEdge(0, 1);  // r4: A on B
  g.AddEdge(2, 0);  // r5: C on A
  g.AddEdge(3, 0);  // r6: D on A
  g.AddEdge(2, 3);  // r7: C on D
  return g;
}

std::set<std::string> PathStrings(
    const std::vector<std::vector<NodeId>>& paths) {
  const char* names = "ABCDE";
  std::set<std::string> out;
  for (const auto& p : paths) {
    std::string s;
    for (NodeId n : p) s.push_back(names[n]);
    out.insert(s);
  }
  return out;
}

TEST(DependencyTest, ExampleMaximalPathsFromA) {
  // Section 2 lists four maximal paths for A; the ABDA entry is the technical
  // report's rendering of the loop through C and D (A B C D A).
  auto paths = PathStrings(ExampleGraph().MaximalPathsFrom(0));
  EXPECT_EQ(paths, (std::set<std::string>{"ABE", "ABCB", "ABCA", "ABCDA"}));
}

TEST(DependencyTest, ExampleMaximalPathsFromB) {
  auto paths = PathStrings(ExampleGraph().MaximalPathsFrom(1));
  EXPECT_EQ(paths, (std::set<std::string>{"BE", "BCB", "BCAB", "BCDAB"}));
}

TEST(DependencyTest, ExampleMaximalPathsFromC) {
  auto paths = PathStrings(ExampleGraph().MaximalPathsFrom(2));
  EXPECT_EQ(paths, (std::set<std::string>{"CBE", "CBC", "CABE", "CABC",
                                          "CDABE", "CDABC"}));
}

TEST(DependencyTest, ExampleMaximalPathsFromD) {
  auto paths = PathStrings(ExampleGraph().MaximalPathsFrom(3));
  EXPECT_EQ(paths,
            (std::set<std::string>{"DABE", "DABCB", "DABCA", "DABCD"}));
}

TEST(DependencyTest, SinkHasNoPaths) {
  EXPECT_TRUE(ExampleGraph().MaximalPathsFrom(4).empty());
}

TEST(DependencyTest, PathPrefixesAreSimple) {
  for (NodeId start : {0u, 1u, 2u, 3u}) {
    for (const auto& path : ExampleGraph().MaximalPathsFrom(start)) {
      std::set<NodeId> prefix(path.begin(), path.end() - 1);
      EXPECT_EQ(prefix.size(), path.size() - 1)
          << "non-simple prefix from " << start;
    }
  }
}

TEST(DependencyTest, ReachabilityFromExampleNodes) {
  DependencyGraph g = ExampleGraph();
  EXPECT_EQ(g.ReachableFrom(0), (std::set<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(g.ReachableFrom(4), (std::set<NodeId>{}));
}

TEST(DependencyTest, ExampleSccs) {
  DependencyGraph g = ExampleGraph();
  EXPECT_EQ(g.SccOf(0), (std::set<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(g.SccOf(4), (std::set<NodeId>{4}));
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(DependencyTest, ReachableSubgraphRestricts) {
  DependencyGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);  // Disconnected from 0.
  DependencyGraph sub = g.ReachableSubgraph(0);
  EXPECT_EQ(sub.edges().size(), 2u);
  EXPECT_FALSE(sub.edges().count({3, 4}));
}

TEST(DependencyTest, TopologicalOrderOnDag) {
  DependencyGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  ASSERT_TRUE(g.IsAcyclic());
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.ok());
  auto pos = [&](NodeId n) {
    return std::find(order->begin(), order->end(), n) - order->begin();
  };
  for (const Edge& e : g.edges()) {
    EXPECT_LT(pos(e.first), pos(e.second));
  }
}

TEST(DependencyTest, TopologicalOrderFailsOnCycle) {
  EXPECT_FALSE(ExampleGraph().TopologicalOrder().ok());
}

TEST(DependencyTest, SelfLoopIsCyclic) {
  DependencyGraph g;
  g.AddEdge(0, 0);
  EXPECT_FALSE(g.IsAcyclic());
}

TEST(DependencyTest, SeparationDefinition10) {
  DependencyGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  // {0,1} cannot reach {2,3}: separated.
  EXPECT_TRUE(g.IsSeparated({0, 1}, {2, 3}));
  // {2} can reach {3}: not separated.
  EXPECT_FALSE(g.IsSeparated({2}, {3}));
  // Direction matters: {3} cannot reach {2}.
  EXPECT_TRUE(g.IsSeparated({3}, {2}));
}

TEST(DependencyTest, DepthOfChainAndTree) {
  DependencyGraph chain;
  chain.AddEdge(0, 1);
  chain.AddEdge(1, 2);
  chain.AddEdge(2, 3);
  EXPECT_EQ(chain.DepthFrom(0), 3u);

  DependencyGraph tree;
  tree.AddEdge(0, 1);
  tree.AddEdge(0, 2);
  tree.AddEdge(1, 3);
  EXPECT_EQ(tree.DepthFrom(0), 2u);
}

TEST(DependencyTest, FromRulesUsesHeadToBodyDirection) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  DependencyGraph g = DependencyGraph::FromRules(system->rules());
  EXPECT_EQ(g.edges(), ExampleGraph().edges());
}

TEST(WeakAcyclicityTest, CopyRulesAreWeaklyAcyclic) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  EXPECT_TRUE(RulesAreWeaklyAcyclic(system->rules()));
}

TEST(WeakAcyclicityTest, ExistentialFeedbackDetected) {
  // p(X) => q(X, Z) with Z existential; q(Y, Z) => p(Z): classic
  // non-terminating chase pattern; must be flagged non-weakly-acyclic.
  P2PSystem system;
  rel::Database dbp, dbq;
  (void)dbp.CreateRelation(rel::RelationSchema("p", {"x"}));
  (void)dbq.CreateRelation(rel::RelationSchema("q", {"x", "z"}));
  ASSERT_TRUE(system.AddNode("P", dbp).ok());
  ASSERT_TRUE(system.AddNode("Q", dbq).ok());

  CoordinationRule r1;
  r1.id = "r1";
  r1.head_node = 1;
  rel::Atom qa;
  qa.relation = "q";
  qa.terms = {rel::Term::Var("X"), rel::Term::Var("Z")};
  r1.head_atoms = {qa};
  CoordinationRule::BodyPart p1;
  p1.node = 0;
  rel::Atom pa;
  pa.relation = "p";
  pa.terms = {rel::Term::Var("X")};
  p1.atoms = {pa};
  r1.body = {p1};

  CoordinationRule r2;
  r2.id = "r2";
  r2.head_node = 0;
  rel::Atom ph;
  ph.relation = "p";
  ph.terms = {rel::Term::Var("Z")};
  r2.head_atoms = {ph};
  CoordinationRule::BodyPart p2;
  p2.node = 1;
  rel::Atom qb;
  qb.relation = "q";
  qb.terms = {rel::Term::Var("Y"), rel::Term::Var("Z")};
  p2.atoms = {qb};
  r2.body = {p2};

  EXPECT_FALSE(RulesAreWeaklyAcyclic({r1, r2}));
}

TEST(PathToStringTest, UsesNodeNames) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(PathToString({0, 1, 4}, &*system), "ABE");
  EXPECT_EQ(PathToString({0, 1}, nullptr), "01");
}

}  // namespace
}  // namespace p2pdb::core
