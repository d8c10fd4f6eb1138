// Micro-benchmarks (google-benchmark) for the substrate hot paths: conjunctive
// query evaluation, chase application, wire codecs, the CRC-32 that guards
// every frame and WAL record, and the discovery wave.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/session.h"
#include "src/core/wire.h"
#include "src/net/sim_runtime.h"
#include "src/relational/chase.h"
#include "src/relational/eval.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"
#include "src/workload/scenario.h"

namespace p2pdb {
namespace {

rel::Database MakeEdgeDb(int64_t n) {
  rel::Database db;
  (void)db.CreateRelation(rel::RelationSchema("edge", {"src", "dst"}));
  Rng rng(4);
  for (int64_t i = 0; i < n; ++i) {
    (void)db.Insert("edge",
                    rel::Tuple({rel::Value::Int(rng.NextInRange(0, n / 4)),
                                rel::Value::Int(rng.NextInRange(0, n / 4))}));
  }
  return db;
}

void BM_EvalTwoHopJoin(benchmark::State& state) {
  rel::Database db = MakeEdgeDb(state.range(0));
  rel::ConjunctiveQuery q;
  q.head_vars = {"X", "Z"};
  rel::Atom a1, a2;
  a1.relation = a2.relation = "edge";
  a1.terms = {rel::Term::Var("X"), rel::Term::Var("Y")};
  a2.terms = {rel::Term::Var("Y"), rel::Term::Var("Z")};
  q.atoms = {a1, a2};
  for (auto _ : state) {
    auto result = rel::EvaluateQuery(db, q);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvalTwoHopJoin)->Arg(256)->Arg(1024)->Arg(4096);

// Head application per binding, compiled once: a fully bound head (plain
// insert) and an existential head under kHomomorphismCheck (probe, then mint
// and insert). Each X value comes twice, so the existential head's second
// application finds a witness and is skipped.
void BM_RuleHeadApply(benchmark::State& state) {
  const bool existential = state.range(0) != 0;
  const int64_t bindings = state.range(1);
  rel::Atom head;
  head.relation = "derived";
  head.terms = {rel::Term::Var("X"), rel::Term::Var(existential ? "W" : "Y")};
  rel::Database schema;
  (void)schema.CreateRelation(rel::RelationSchema("derived", {"x", "w"}));
  rel::RuleHead compiled({head}, {"X", "Y"}, schema);
  rel::ChaseOptions options;
  options.policy = rel::ChasePolicy::kHomomorphismCheck;
  for (auto _ : state) {
    state.PauseTiming();
    rel::Database db;
    (void)db.CreateRelation(rel::RelationSchema("derived", {"x", "w"}));
    rel::NullFactory nulls(1);
    rel::ChaseStats stats;
    state.ResumeTiming();
    for (int64_t i = 0; i < bindings; ++i) {
      const std::vector<rel::Value> binding{
          rel::Value::Int(i % (bindings / 2)), rel::Value::Int(i)};
      benchmark::DoNotOptimize(
          compiled.Apply(&db, binding, &nulls, options, &stats));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_RuleHeadApply)
    ->ArgNames({"existential", "bindings"})
    ->Args({0, 1024})
    ->Args({1, 1024});

void BM_WireTupleListRoundTrip(benchmark::State& state) {
  rel::RowList tuples;
  for (int64_t i = 0; i < state.range(0); ++i) {
    tuples.push_back(rel::Tuple({rel::Value::Int(i),
                                 rel::Value::Str("title-" + std::to_string(i)),
                                 rel::Value::Int(1990 + (i % 15))}));
  }
  for (auto _ : state) {
    Writer w;
    core::wire::EncodeTupleList(tuples, &w);
    Reader r(w.bytes());
    auto back = core::wire::DecodeTupleList(&r);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 24);
}
BENCHMARK(BM_WireTupleListRoundTrip)->Arg(100)->Arg(1000);

// CRC-32 over one buffer, as a frame or WAL record of that size pays it.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.NextBelow(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(256)->Arg(4 << 10)->Arg(64 << 10);

void BM_DiscoveryWave(benchmark::State& state) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kClique;
  options.topology.nodes = static_cast<size_t>(state.range(0));
  options.records_per_node = 1;
  auto system = workload::BuildScenario(options);
  for (auto _ : state) {
    net::SimRuntime rt;
    core::Session session(*system, &rt);
    benchmark::DoNotOptimize(session.RunDiscovery());
  }
}
BENCHMARK(BM_DiscoveryWave)->Arg(8)->Arg(16)->Arg(31);

void BM_GlobalUpdateTree(benchmark::State& state) {
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = static_cast<size_t>(state.range(0));
  options.records_per_node = 50;
  auto system = workload::BuildScenario(options);
  for (auto _ : state) {
    net::SimRuntime rt;
    core::Session session(*system, &rt);
    (void)session.RunDiscovery();
    (void)session.RunUpdate();
    benchmark::DoNotOptimize(session.AllClosed());
  }
}
BENCHMARK(BM_GlobalUpdateTree)->Arg(7)->Arg(15)->Arg(31);

}  // namespace
}  // namespace p2pdb

BENCHMARK_MAIN();
