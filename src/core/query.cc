#include "src/core/query.h"

#include <chrono>

#include "src/obs/metrics.h"
#include "src/relational/eval.h"

namespace p2pdb::core {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void RecordServed(const rel::SnapshotStore& store, const rel::DbSnapshot& snap,
                  uint64_t eval_micros) {
  static obs::Histogram* eval =
      obs::Registry::Global().GetHistogram("query.eval_micros");
  static obs::Counter* served =
      obs::Registry::Global().GetCounter("query.served");
  static obs::Gauge* staleness =
      obs::Registry::Global().GetGauge("query.snapshot_staleness_batches");
  eval->Record(eval_micros);
  served->Increment();
  // High-water staleness: how many committed batches the served view lagged.
  // Normally 0; 1 while a reader overlaps the writer's snapshot rebuild.
  uint64_t committed = store.CommittedBatches();
  if (committed > snap.version()) {
    staleness->RaiseTo(static_cast<int64_t>(committed - snap.version()));
  }
}

}  // namespace

Result<std::set<rel::Tuple>> SnapshotQuery(const rel::SnapshotStore& store,
                                           const rel::ConjunctiveQuery& query) {
  rel::SnapshotPtr snap = store.Acquire();
  uint64_t start = NowMicros();
  auto result = rel::EvaluateQuery(*snap, query);
  RecordServed(store, *snap, NowMicros() - start);
  return result;
}

Result<bool> SnapshotQueryPoint(const rel::SnapshotStore& store,
                                const std::string& relation,
                                const rel::Tuple& key) {
  rel::SnapshotPtr snap = store.Acquire();
  uint64_t start = NowMicros();
  const rel::LogView view = snap->View(relation);
  bool found = view && view.Contains(key);
  RecordServed(store, *snap, NowMicros() - start);
  return found;
}

}  // namespace p2pdb::core
