// A5 — ablation: chase policies for algorithm A6. The paper's per-head-atom
// projection check vs the standard restricted-chase homomorphism check.
// Includes the order-dependence demonstration behind finding F1 in
// EXPERIMENTS.md: under the projection policy, an unlinked pub/wrote pair can
// suppress the linked witness a later derivation needs.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/relational/chase.h"
#include "src/relational/eval.h"

using namespace p2pdb;        // NOLINT
using namespace p2pdb::bench;  // NOLINT

namespace {

void PolicySweep() {
  PrintHeader("A5 chase policy: materialization and cost");
  std::printf("%-12s %-14s %10s %10s %10s %10s\n", "topology", "policy",
              "wall-ms", "inserted", "sim-ms", "closed");
  using Kind = workload::TopologySpec::Kind;
  for (Kind kind : {Kind::kTree, Kind::kClique}) {
    for (rel::ChasePolicy policy : {rel::ChasePolicy::kProjectionCheck,
                                    rel::ChasePolicy::kHomomorphismCheck}) {
      workload::ScenarioOptions options;
      options.topology.kind = kind;
      options.topology.nodes = kind == Kind::kClique ? 7 : 15;
      options.records_per_node =
          FullScale() ? 250 : (kind == Kind::kClique ? 40 : 120);
      core::Session::Options session_options;
      session_options.peer.update.chase.policy = policy;
      RunMetrics m = RunScenario(options, session_options);
      std::printf("%-12s %-14s %10.1f %10llu %10.1f %10s\n",
                  workload::TopologyKindName(kind),
                  policy == rel::ChasePolicy::kProjectionCheck
                      ? "projection"
                      : "homomorphism",
                  m.wall_ms, static_cast<unsigned long long>(m.inserted),
                  m.sim_ms, m.all_closed ? "yes" : "NO");
    }
  }
}

// Finding F1: the paper's A6 projection check is evaluation-order dependent.
void OrderDependenceDemo() {
  PrintHeader("A5b finding F1: A6 projection check is order dependent");
  // Database with pub/wrote; rule head pub(I,T,Y) ∧ wrote(A,I), I,Y
  // existential, applied for (T=t1, A=alice).
  auto build = [](bool pre_populate_unlinked) {
    rel::Database db;
    (void)db.CreateRelation(rel::RelationSchema("pub", {"i", "t", "y"}));
    (void)db.CreateRelation(rel::RelationSchema("wrote", {"a", "i"}));
    if (pre_populate_unlinked) {
      // Unlinked facts mentioning the same title and author.
      (void)db.Insert("pub", rel::Tuple({rel::Value::Str("i9"),
                                         rel::Value::Str("t1"),
                                         rel::Value::Int(2000)}));
      (void)db.Insert("wrote", rel::Tuple({rel::Value::Str("alice"),
                                           rel::Value::Str("i7")}));
    }
    return db;
  };
  rel::Atom pub;
  pub.relation = "pub";
  pub.terms = {rel::Term::Var("I"), rel::Term::Var("T"), rel::Term::Var("Y")};
  rel::Atom wrote;
  wrote.relation = "wrote";
  wrote.terms = {rel::Term::Var("A"), rel::Term::Var("I")};
  rel::RuleHead head({pub, wrote}, {"T", "A"}, build(false));
  const std::vector<rel::Value> binding{rel::Value::Str("t1"),
                                        rel::Value::Str("alice")};

  for (bool pre : {false, true}) {
    for (rel::ChasePolicy policy : {rel::ChasePolicy::kProjectionCheck,
                                    rel::ChasePolicy::kHomomorphismCheck}) {
      rel::Database db = build(pre);
      rel::NullFactory nulls(1);
      rel::ChaseOptions chase;
      chase.policy = policy;
      rel::ChaseStats stats;
      (void)head.Apply(&db, binding, &nulls, chase, &stats);
      // Does a *linked* witness exist afterwards?
      rel::ConjunctiveQuery probe;
      probe.head_vars = {"I"};
      rel::Atom p2 = pub, w2 = wrote;
      p2.terms[1] = rel::Term::Const(rel::Value::Str("t1"));
      w2.terms[0] = rel::Term::Const(rel::Value::Str("alice"));
      probe.atoms = {p2, w2};
      auto linked = rel::EvaluateQuery(db, probe);
      std::printf("  prior unlinked facts: %-3s policy: %-14s inserted: %zu "
                  "linked witness: %s\n",
                  pre ? "yes" : "no",
                  policy == rel::ChasePolicy::kProjectionCheck
                      ? "projection"
                      : "homomorphism",
                  stats.inserted,
                  linked.ok() && !linked->empty() ? "yes" : "NO");
    }
  }
  std::printf(
      "\nreading: with prior unlinked facts the projection policy skips both\n"
      "head atoms and never creates a linked pub-wrote witness, so downstream\n"
      "joins lose answers; the homomorphism policy always leaves a linked\n"
      "witness. This makes the paper's A6 completeness claim\n"
      "order-sensitive.\n");
}

}  // namespace

int main() {
  PolicySweep();
  OrderDependenceDemo();
  return 0;
}
