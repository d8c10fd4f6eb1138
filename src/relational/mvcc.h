// MVCC read snapshots: point-in-time views of one peer's database, published
// through a lock-free SnapshotStore so any number of reader threads can
// answer point lookups and conjunctive queries while the chase keeps
// applying deltas to the live database underneath.
//
// A snapshot copies no tuples. Relations only grow, and each one appends to
// a TupleLog (tuple_log.h), so a past state of the database is a prefix of
// every relation's log: a snapshot is the database's relation table plus a
// version row (database.h) of log sizes, and the number of delta batches
// the row folds in.
//
// Retention: the store keeps one table per database incarnation (the
// database a peer is built with, and each one recovery rebuilds), each with
// a fixed ring of row slots. A publish writes a row, O(#relations), into the
// next slot, so memory is bounded by the tables and rings however many
// batches are published. A crashed peer's table keeps serving its last row
// until the restarted peer publishes the recovered database.
//
// Writer protocol (one writer per store at a time — the peer's
// runtime-serialized update path): publish n writes slot n % kSlots as a
// seqlock. It stores the slot's sequence word 2n - 1 (odd: being written),
// release-stores the batch and every row word, then release-stores sequence
// 2n and the table's publish count n. Those release stores are what order
// the writer's appends below each row word before any reader's lookups.
//
// Readers take no lock and never block the writer or each other. A reader
// acquire-loads the current table and its publish count n, checks that slot
// n % kSlots holds sequence 2n, copies the batch and row with acquire loads
// (which order the second check after the copy without a fence), and checks
// the sequence again, retrying on the newest row if the writer lapped the
// ring meanwhile. Every shared word is an atomic, so TSan sees no race.
//
// Every query the store answers records the read plane's instruments:
//   query.eval_micros                histogram, per-query evaluation time
//   query.served                     sharded counter, queries answered
//   query.snapshot_staleness_batches gauge (high-water), max delta batches a
//                                    served row lagged the live commit
#ifndef P2PDB_RELATIONAL_MVCC_H_
#define P2PDB_RELATIONAL_MVCC_H_

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/relational/cq.h"
#include "src/relational/database.h"

namespace p2pdb::rel {

/// A point-in-time view of one peer's database: its relation table read at
/// a version row. A ReadView, safe to share across threads: it reads its
/// logs only below the row, which the writer never changes again, and keeps
/// its table alive past the peer and the store it came from.
class DbSnapshot : public ReadView {
 public:
  /// An empty database at batch 0.
  DbSnapshot() = default;

  RelationId Find(const std::string& name) const override {
    return table_ == nullptr ? kNoRelation : FindRelation(*table_, name);
  }
  size_t Arity(RelationId id) const override {
    return (*table_)[id].schema().arity();
  }
  LogView View(RelationId id) const override {
    return LogView(&(*table_)[id].log(), row_[id]);
  }

  /// Number of delta batches folded in (0 = the peer's initial database).
  uint64_t batch() const { return batch_; }
  const Version& row() const { return row_; }

 private:
  friend class SnapshotStore;

  std::shared_ptr<const RelationTable> table_;
  Version row_;
  uint64_t batch_ = 0;
};

/// Lock-free publication point between one writer and any number of reader
/// threads. The store always holds a row (initially that of an empty
/// database), so a reader always gets a snapshot, and a reader that
/// outlives its peer (churn) keeps getting the last committed state.
class SnapshotStore {
 public:
  /// Row slots per table: a reader retries only if the writer laps the ring.
  static constexpr size_t kSlots = 8;

  SnapshotStore();
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Writer only: publishes `db`'s current row, tagged with the number of
  /// delta batches committed so far. The first publish of a table
  /// (db.table()) starts serving it, and readers switch to it in one step;
  /// later ones write its next ring slot.
  void Publish(const Database& db);

  /// Writer only: counts one more committed delta batch, then publishes. A
  /// served row lags the committed count by its staleness: normally 0, and
  /// briefly 1 while the writer publishes.
  void Commit(const Database& db) {
    committed_batches_.fetch_add(1, std::memory_order_relaxed);
    Publish(db);
  }

  /// The current row, copied with its table and batch.
  DbSnapshot Acquire() const;

  /// Evaluates `query` at the current row (EvaluateQuery).
  Result<std::set<Tuple>> Query(const ConjunctiveQuery& query) const;

  /// Point lookup at the current row: whether `relation` holds `key` (false
  /// when the relation does not exist — absent data, not an error). Copies
  /// only that relation's row word and allocates nothing.
  bool QueryPoint(const std::string& relation, const Tuple& key) const;

 private:
  /// One served table and its ring: slot s is words [s * width, (s + 1) *
  /// width) of `words`, holding its sequence, its batch, then one log size
  /// per relation id.
  struct Served {
    explicit Served(std::shared_ptr<const RelationTable> served);
    std::shared_ptr<const RelationTable> table;
    size_t width;
    std::atomic<uint64_t> published{0};
    std::unique_ptr<std::atomic<uint64_t>[]> words;
  };

  /// Records one answered query, evaluated in `eval_micros` at `batch`.
  void RecordServed(uint64_t batch, uint64_t eval_micros) const;
  /// Runs `copy(served, slot)` on the newest published slot until a copy
  /// sees no concurrent write.
  template <class Copy>
  void Read(const Copy& copy) const {
    for (;;) {
      const Served* s = current_.load(std::memory_order_acquire);
      const uint64_t n = s->published.load(std::memory_order_acquire);
      const std::atomic<uint64_t>* slot = &s->words[(n % kSlots) * s->width];
      if (slot[0].load(std::memory_order_acquire) != 2 * n) continue;
      copy(*s, slot);
      if (slot[0].load(std::memory_order_relaxed) == 2 * n) return;
    }
  }

  /// Every table served so far, the current one last. Touched by the
  /// writer only; readers reach a table through current_.
  std::vector<std::unique_ptr<Served>> served_;
  std::atomic<const Served*> current_{nullptr};
  std::atomic<uint64_t> committed_batches_{0};
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_MVCC_H_
