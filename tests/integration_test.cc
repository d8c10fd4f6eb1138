// End-to-end property tests: on generated scenarios (all topologies, sizes,
// overlap distributions, chase policies) the distributed update must close at
// every participant and agree with the centralized global fix-point.
#include <gtest/gtest.h>

#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/net/sim_runtime.h"
#include "src/relational/null_iso.h"
#include "src/workload/scenario.h"

namespace p2pdb::core {
namespace {

struct SweepCase {
  workload::TopologySpec::Kind kind;
  size_t nodes;
  double overlap_prob;
  uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
    return os << workload::TopologyKindName(c.kind) << "_n" << c.nodes
              << "_o" << static_cast<int>(c.overlap_prob * 100) << "_s"
              << c.seed;
  }
};

class ScenarioSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ScenarioSweep, DistributedUpdateMatchesGlobalFixpoint) {
  const SweepCase& param = GetParam();
  workload::ScenarioOptions options;
  options.topology.kind = param.kind;
  options.topology.nodes = param.nodes;
  options.topology.seed = param.seed;
  options.records_per_node = 8;
  options.link_overlap_prob = param.overlap_prob;
  options.seed = param.seed;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  net::SimRuntime rt(net::SimRuntime::Options{.seed = param.seed,
                                              .max_events = 50'000'000});
  // The scenario's schema-translation rules invent existentials; the paper's
  // per-atom projection check (A6) is evaluation-order dependent there, so the
  // cross-implementation comparison uses the order-independent homomorphism
  // policy on both sides (see EXPERIMENTS.md, finding F1).
  Session::Options session_options;
  session_options.peer.update.chase.policy =
      rel::ChasePolicy::kHomomorphismCheck;
  Session session(*system, &rt, session_options);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());

  std::set<NodeId> open;
  ASSERT_TRUE(session.AllClosed(&open))
      << open.size() << " nodes failed to close";

  rel::ChaseOptions global_chase;
  global_chase.policy = rel::ChasePolicy::kHomomorphismCheck;
  auto global = ComputeGlobalFixpoint(*system, global_chase);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  for (NodeId n : session.Participants()) {
    EXPECT_TRUE(
        rel::DatabasesCertainEqual(session.peer(n).db(), global->node_dbs[n]))
        << "node " << n;
  }
}

std::vector<SweepCase> MakeSweepCases() {
  std::vector<SweepCase> cases;
  using Kind = workload::TopologySpec::Kind;
  for (Kind kind : {Kind::kTree, Kind::kLayeredDag, Kind::kClique,
                    Kind::kChain, Kind::kRing, Kind::kRandom}) {
    for (size_t nodes : {4u, 7u, 10u}) {
      for (double overlap : {0.0, 0.5}) {
        cases.push_back(SweepCase{kind, nodes, overlap, 11 + nodes});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, ScenarioSweep,
                         ::testing::ValuesIn(MakeSweepCases()));

class ChasePolicySweep
    : public ::testing::TestWithParam<rel::ChasePolicy> {};

TEST_P(ChasePolicySweep, CliqueWithExistentialsConverges) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kClique;
  options.topology.nodes = 6;  // Includes all three schema styles twice.
  options.records_per_node = 5;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());

  Session::Options session_options;
  session_options.peer.update.chase.policy = GetParam();
  net::SimRuntime rt;
  Session session(*system, &rt, session_options);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());

  // Soundness holds for both policies: every certain tuple the distributed
  // run derives appears in the homomorphism-policy global fix-point. Exact
  // certain-equality additionally holds for the homomorphism policy (the
  // projection policy is evaluation-order dependent; finding F1).
  rel::ChaseOptions global_chase;
  global_chase.policy = rel::ChasePolicy::kHomomorphismCheck;
  auto global = ComputeGlobalFixpoint(*system, global_chase);
  ASSERT_TRUE(global.ok());
  for (NodeId n : session.Participants()) {
    const rel::Database& dist = session.peer(n).db();
    for (const rel::Relation& relation : dist.relations()) {
      const std::string& name = relation.name();
      const rel::RelationId global_rel = global->node_dbs[n].Find(name);
      ASSERT_NE(global_rel, rel::kNoRelation);
      std::set<rel::Tuple> global_certain =
          global->node_dbs[n].relation(global_rel).CertainTuples();
      for (const rel::Tuple& t : relation.CertainTuples()) {
        EXPECT_TRUE(global_certain.count(t))
            << "node " << n << " unsound tuple " << name << t.ToString();
      }
    }
    if (GetParam() == rel::ChasePolicy::kHomomorphismCheck) {
      EXPECT_TRUE(rel::DatabasesCertainEqual(dist, global->node_dbs[n]))
          << "node " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ChasePolicySweep,
    ::testing::Values(rel::ChasePolicy::kProjectionCheck,
                      rel::ChasePolicy::kHomomorphismCheck));

TEST(IntegrationTest, PaperScaleCliqueSmallData) {
  // Cliques are the paper's worst case; keep data small but the full 31-node
  // network of the experiments.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kClique;
  options.topology.nodes = 13;
  options.records_per_node = 2;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
}

TEST(IntegrationTest, Tree31NodesThousandRecordsShape) {
  // The paper's headline configuration (31 nodes, trees) at reduced record
  // count for test speed; the full size runs in bench_scalability.
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = 31;
  options.records_per_node = 30;
  auto system = workload::BuildScenario(options);
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());
  ASSERT_TRUE(session.AllClosed());
  // The root (article style) ends up with translations of every node's data.
  const rel::Database& root = session.peer(0).db();
  EXPECT_GT(root.TotalTuples(), 30u * 30u);
}

TEST(IntegrationTest, LocalQueriesAfterUpdateSeeRemoteData) {
  auto system = workload::MakeRunningExample();
  ASSERT_TRUE(system.ok());
  net::SimRuntime rt;
  Session session(*system, &rt);
  ASSERT_TRUE(session.RunDiscovery().ok());
  ASSERT_TRUE(session.RunUpdate().ok());

  // After the update, node B answers queries about E's data locally.
  rel::ConjunctiveQuery q;
  q.head_vars = {"X", "Y"};
  rel::Atom b;
  b.relation = "b";
  b.terms = {rel::Term::Var("X"), rel::Term::Var("Y")};
  q.atoms = {b};
  auto result = session.peer(1).LocalQuery(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->count(
      rel::Tuple({rel::Value::Str("u"), rel::Value::Str("v")})));
}

}  // namespace
}  // namespace p2pdb::core
