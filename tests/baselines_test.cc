// Baseline algorithms: the centralized global fix-point and the acyclic pull.
#include <gtest/gtest.h>

#include "src/core/acyclic_pull.h"
#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

TEST(GlobalFixpointTest, RunningExampleConverges) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  auto result = ComputeGlobalFixpoint(*system, rel::ChaseOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->iterations, 1u);
  EXPECT_GT(result->chase.inserted, 0u);
  // b at node B holds the three e-pairs, the initial pair, and r3 output.
  EXPECT_GE(result->node_dbs[1].relation("b").size(), 4u);
}

TEST(GlobalFixpointTest, NoRulesMeansNoChange) {
  auto system = lang::ParseSystem(R"(
node A { rel a(x); fact a("v"); }
node B { rel b(x); }
)");
  ASSERT_TRUE(system.ok());
  auto result = ComputeGlobalFixpoint(*system, rel::ChaseOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, 1u);
  EXPECT_EQ(result->chase.inserted, 0u);
  EXPECT_TRUE(result->node_dbs[0] == system->node(0).db);
}

TEST(GlobalFixpointTest, IterationCountGrowsWithChainDepth) {
  // Naive evaluation needs roughly depth-many passes when rule order opposes
  // the data flow direction.
  auto shallow = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); fact b("v"); }
rule r1: B.b(X) => A.a(X);
)");
  auto deep = lang::ParseSystem(R"(
node A { rel a(x); }
node B { rel b(x); }
node C { rel c(x); }
node D { rel d(x); fact d("v"); }
rule r1: B.b(X) => A.a(X);
rule r2: C.c(X) => B.b(X);
rule r3: D.d(X) => C.c(X);
)");
  ASSERT_TRUE(shallow.ok());
  ASSERT_TRUE(deep.ok());
  auto s = ComputeGlobalFixpoint(*shallow, rel::ChaseOptions{});
  auto d = ComputeGlobalFixpoint(*deep, rel::ChaseOptions{});
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_LE(s->iterations, d->iterations);
}

// Cross-implementation comparisons run under the homomorphism chase policy:
// it is evaluation-order independent for the scenario's rule family, while
// the paper's per-atom projection check is not (finding F1 in EXPERIMENTS.md).
rel::ChaseOptions HomChase() {
  rel::ChaseOptions chase;
  chase.policy = rel::ChasePolicy::kHomomorphismCheck;
  return chase;
}

TEST(AcyclicPullTest, MatchesGlobalFixpointOnTree) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 7;
  options.records_per_node = 6;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());
  auto pull = RunAcyclicPull(*system, HomChase());
  ASSERT_TRUE(pull.ok()) << pull.status().ToString();
  auto global = ComputeGlobalFixpoint(*system, HomChase());
  ASSERT_TRUE(global.ok());
  for (NodeId n = 0; n < 7; ++n) {
    EXPECT_TRUE(
        rel::DatabasesCertainEqual(pull->node_dbs[n], global->node_dbs[n]))
        << "node " << n;
  }
  EXPECT_GT(pull->messages, 0u);
  EXPECT_GT(pull->bytes, 0u);
}

TEST(AcyclicPullTest, MatchesGlobalFixpointOnLayeredDag) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kLayeredDag;
  options.topology.nodes = 10;
  options.topology.layers = 4;
  options.records_per_node = 4;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());
  auto pull = RunAcyclicPull(*system, HomChase());
  ASSERT_TRUE(pull.ok());
  auto global = ComputeGlobalFixpoint(*system, HomChase());
  ASSERT_TRUE(global.ok());
  for (NodeId n = 0; n < 10; ++n) {
    EXPECT_TRUE(
        rel::DatabasesCertainEqual(pull->node_dbs[n], global->node_dbs[n]))
        << "node " << n;
  }
}

TEST(AcyclicPullTest, RejectsCyclicNetworks) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  auto pull = RunAcyclicPull(*system, rel::ChaseOptions{});
  EXPECT_FALSE(pull.ok());
  EXPECT_EQ(pull.status().code(), StatusCode::kInvalidArgument);
}

TEST(BaselinesTest, DistributedUsesFewerAnswerBytesWithDeltaOnDag) {
  // Sanity comparison wiring for bench B1: both algorithms produce the same
  // instance on a DAG; message counts are comparable quantities.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kLayeredDag;
  options.topology.nodes = 8;
  options.records_per_node = 5;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());

  auto pull = RunAcyclicPull(*system, HomChase());
  ASSERT_TRUE(pull.ok());

  net::SimRuntime rt;
  Session::Options session_options;
  session_options.peer.update.chase = HomChase();
  Session session(*system, &rt, session_options);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  for (NodeId n = 0; n < 8; ++n) {
    EXPECT_TRUE(rel::DatabasesCertainEqual(session.peer(n).db(),
                                           pull->node_dbs[n]))
        << "node " << n;
  }
  // The single-pass pull is a lower bound on data-carrying traffic.
  EXPECT_GE(rt.stats().total_messages(), pull->messages);
}

}  // namespace
}  // namespace p2pdb::core
