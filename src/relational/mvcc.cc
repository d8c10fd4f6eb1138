#include "src/relational/mvcc.h"

#include <chrono>

#include "src/obs/metrics.h"
#include "src/relational/eval.h"

namespace p2pdb::rel {

namespace {
uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void SnapshotStore::RecordServed(uint64_t batch, uint64_t eval_micros) const {
  static obs::Histogram* eval =
      obs::Registry::Global().GetHistogram("query.eval_micros");
  static obs::Counter* served =
      obs::Registry::Global().GetCounter("query.served");
  static obs::Gauge* staleness =
      obs::Registry::Global().GetGauge("query.snapshot_staleness_batches");
  eval->Record(eval_micros);
  served->Increment();
  // How many committed batches the row lagged: normally 0, and 1 while a
  // reader overlaps the writer's publish.
  const uint64_t committed = committed_batches_.load(std::memory_order_relaxed);
  if (committed > batch) {
    staleness->RaiseTo(static_cast<int64_t>(committed - batch));
  }
}

SnapshotStore::Served::Served(std::shared_ptr<const RelationTable> served)
    : table(std::move(served)),
      width(2 + table->size()),
      words(new std::atomic<uint64_t>[kSlots * width]()) {}

SnapshotStore::SnapshotStore() { Publish(Database()); }

void SnapshotStore::Publish(const Database& db) {
  const bool new_table =
      served_.empty() || served_.back()->table.get() != &db.relations();
  if (new_table) served_.push_back(std::make_unique<Served>(db.table()));
  Served* s = served_.back().get();
  const uint64_t n = s->published.load(std::memory_order_relaxed) + 1;
  std::atomic<uint64_t>* slot = &s->words[(n % kSlots) * s->width];
  slot[0].store(2 * n - 1, std::memory_order_relaxed);
  slot[1].store(committed_batches_.load(std::memory_order_relaxed),
                std::memory_order_release);
  const RelationTable& relations = *s->table;
  for (size_t id = 0; id < relations.size(); ++id) {
    slot[2 + id].store(relations[id].size(), std::memory_order_release);
  }
  slot[0].store(2 * n, std::memory_order_release);
  s->published.store(n, std::memory_order_release);
  if (new_table) current_.store(s, std::memory_order_release);
}

DbSnapshot SnapshotStore::Acquire() const {
  DbSnapshot snap;
  Read([&](const Served& s, const std::atomic<uint64_t>* slot) {
    snap.table_ = s.table;
    snap.batch_ = slot[1].load(std::memory_order_acquire);
    snap.row_.resize(s.table->size());
    for (size_t id = 0; id < snap.row_.size(); ++id) {
      snap.row_[id] = slot[2 + id].load(std::memory_order_acquire);
    }
  });
  return snap;
}

Result<std::set<Tuple>> SnapshotStore::Query(
    const ConjunctiveQuery& query) const {
  const DbSnapshot snap = Acquire();
  const uint64_t start = NowMicros();
  auto result = EvaluateQuery(snap, query);
  RecordServed(snap.batch(), NowMicros() - start);
  return result;
}

bool SnapshotStore::QueryPoint(const std::string& relation,
                               const Tuple& key) const {
  const uint64_t start = NowMicros();
  uint64_t batch = 0;
  LogView view;  // The logs stay valid while the store lives.
  Read([&](const Served& s, const std::atomic<uint64_t>* slot) {
    batch = slot[1].load(std::memory_order_acquire);
    const RelationId id = FindRelation(*s.table, relation);
    view = id == kNoRelation
               ? LogView()
               : LogView(&(*s.table)[id].log(),
                         slot[2 + id].load(std::memory_order_acquire));
  });
  const bool found = view && view.Contains(key);
  RecordServed(batch, NowMicros() - start);
  return found;
}

}  // namespace p2pdb::rel
