// MVCC read snapshots: immutable, shareable point-in-time views of one
// peer's database, published through a lock-free SnapshotStore so any number
// of reader threads can answer point lookups and conjunctive queries while
// the chase keeps applying deltas to the live database underneath.
//
// A snapshot copies no tuples. Relations only grow, and each one appends to
// a TupleLog (tuple_log.h), so a past state of a relation is a prefix of its
// log: a snapshot is a map from relation name to (log, watermark), where the
// watermark is the log's size at publication.
//
// Writer protocol (one writer per store — the peer's runtime-serialized
// update path): on each committed delta batch, BuildSnapshot records every
// relation's current log size, O(#relations), then Publish() makes it
// visible with a release store. That store is what orders the writer's
// appends below each watermark before any reader's lookups. Readers
// Acquire() with a single atomic raw-pointer load — no mutex, no condvar,
// and nothing a reader does can block the writer or other readers.
//
// Why not std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic guards its
// pointer field with a lock bit but unlocks the read side with a relaxed
// fetch_sub, so a reader's critical section has no release edge to the next
// writer — a (benign on x86, but real per the memory model) data race that
// TSan reports. Instead the store retains every snapshot it has ever
// published in a writer-locked list and hands readers an aliasing
// shared_ptr onto that list: the read path is one acquire load plus one
// refcount increment on the long-lived anchor, wait-free and TSan-clean.
// Each retained snapshot costs O(#relations): the tuples live once, in the
// logs the snapshots share with the live database. Retention is released
// when the last reader and the store are gone.
#ifndef P2PDB_RELATIONAL_MVCC_H_
#define P2PDB_RELATIONAL_MVCC_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/relational/database.h"

namespace p2pdb::rel {

/// An immutable point-in-time view of one peer's database. Evaluates queries
/// directly (it is a ReadView) and is safe to share across threads: it only
/// reads its logs below the watermarks it recorded, which the writer never
/// changes again.
class DbSnapshot : public ReadView {
 public:
  struct PublishedLog {
    std::shared_ptr<const TupleLog> log;
    size_t watermark = 0;
  };
  using RelationMap = std::map<std::string, PublishedLog>;

  DbSnapshot() = default;
  DbSnapshot(uint64_t version, RelationMap relations)
      : version_(version), relations_(std::move(relations)) {}

  LogView View(const std::string& relation) const override {
    auto it = relations_.find(relation);
    return it == relations_.end()
               ? LogView()
               : LogView(it->second.log.get(), it->second.watermark);
  }

  /// Number of delta batches folded in (0 = the peer's initial database).
  uint64_t version() const { return version_; }
  const RelationMap& relations() const { return relations_; }

 private:
  uint64_t version_ = 0;
  RelationMap relations_;
};

using SnapshotPtr = std::shared_ptr<const DbSnapshot>;

/// Snapshots `db` as of now, tagged `version`: each relation's log and its
/// current size. Copies no tuples; the only publish call, used at peer
/// construction, after recovery and at every committed delta batch.
SnapshotPtr BuildSnapshot(const Database& db, uint64_t version);

/// Lock-free publication point between one writer and any number of reader
/// threads. The store always holds a snapshot (initially an empty one), so
/// Acquire() never returns null and a reader that outlives its peer (churn)
/// keeps getting the last committed state.
class SnapshotStore {
 public:
  SnapshotStore() : retained_(std::make_shared<Retained>()) {
    SnapshotPtr first = std::make_shared<const DbSnapshot>();
    current_.store(first.get(), std::memory_order_release);
    retained_->all.push_back(std::move(first));  // No readers exist yet.
  }

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The read path: one atomic acquire load of the current snapshot pointer,
  /// wrapped in an aliasing shared_ptr on the retention anchor — a stable
  /// reference no later Publish (or even store destruction) can invalidate.
  SnapshotPtr Acquire() const {
    const DbSnapshot* snap = current_.load(std::memory_order_acquire);
    return SnapshotPtr(retained_, snap);
  }

  /// Publishes a fully built snapshot (retain, then release-store the raw
  /// pointer). Writer-side only; the mutex never appears on the read path.
  void Publish(SnapshotPtr next) {
    const DbSnapshot* raw = next.get();
    {
      std::lock_guard<std::mutex> lock(retained_->mutex);
      retained_->all.push_back(std::move(next));
    }
    published_version_.store(raw->version(), std::memory_order_relaxed);
    current_.store(raw, std::memory_order_release);
  }

  /// Version of the currently published snapshot.
  uint64_t PublishedVersion() const {
    return published_version_.load(std::memory_order_relaxed);
  }

  /// Delta batches the writer has committed to the live database. Bumped by
  /// the writer before it starts building the successor snapshot, so
  /// CommittedBatches() - snapshot->version() is how many batches a reader's
  /// view lags (normally 0; briefly 1 while the writer rebuilds).
  uint64_t CommittedBatches() const {
    return committed_batches_.load(std::memory_order_relaxed);
  }
  uint64_t NoteBatchCommitted() {
    return committed_batches_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  /// Keeps every published snapshot alive. Readers share ownership of the
  /// whole list through the aliasing shared_ptr, so a raw snapshot pointer
  /// loaded from current_ can never dangle; snapshots are freed when the
  /// store and the last outstanding reader reference are gone.
  struct Retained {
    std::mutex mutex;  // Guards `all`; taken by writers only.
    std::vector<SnapshotPtr> all;
  };

  std::shared_ptr<Retained> retained_;
  std::atomic<const DbSnapshot*> current_{nullptr};
  std::atomic<uint64_t> committed_batches_{0};
  std::atomic<uint64_t> published_version_{0};
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_MVCC_H_
