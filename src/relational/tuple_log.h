// TupleLog: the append-only store behind every relation. The update protocol
// is monotone (the chase only inserts and Section 4 never retracts data), so
// any earlier state of a relation is a prefix of its log. An MVCC snapshot
// therefore copies nothing: it records a (log, watermark) pair per relation,
// and publishing a delta batch costs O(#relations).
//
// Layout:
//  * Storage: entries live in chunks of 8, 16, 32, ... slots, so an entry
//    never moves once written and the chunk directory is a fixed array.
//  * Membership: an open-addressing hash set of entry numbers, always kept.
//  * Column index, only for the columns the log is given at construction:
//    one open-addressing table per indexed column mapping a value to the
//    oldest entry holding it there, plus one `next` link per entry and
//    indexed column to the next newer entry with the same value in that
//    column. A lookup walks the chain from old to new and stops at the first
//    link at or above the reader's watermark, so it never touches a newer
//    entry. A relation indexes every column, since ad-hoc reads may look any
//    of them up; a log whose readers are all compiled plans indexes exactly
//    the columns those plans look up, and a log that is only scanned and
//    asked for membership indexes none.
//
// Concurrency contract (one writer, any number of readers):
//  * Only the peer's serialized writer appends.
//  * The writer fills an entry before it release-stores the hash slot or
//    chain link that points at it.
//  * Chunk pointers and table pointers are atomics. A grown table is fully
//    populated before its pointer is release-stored.
//  * A hash table that growth has replaced is never written again. The old
//    tables stay owned by the log, so a reader still probing one is safe.
//  * Readers dereference only entries below their watermark. The watermark
//    reaches them through SnapshotStore's release/acquire publication, which
//    orders every write to those entries before the read.
//  * Snapshots hold their logs by shared_ptr, so a crashed peer's last
//    snapshot keeps its logs alive after the peer's Database is gone.
#ifndef P2PDB_RELATIONAL_TUPLE_LOG_H_
#define P2PDB_RELATIONAL_TUPLE_LOG_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/relational/tuple.h"

namespace p2pdb::rel {

class TupleLog {
 public:
  /// Entry number returned by lookups when nothing (more) matches.
  static constexpr size_t kNone = SIZE_MAX;

  /// Indexes every column.
  explicit TupleLog(size_t arity);
  /// Indexes only `columns` (each below `arity`; repeats are ignored):
  /// First() and Next() may be asked about those columns alone.
  TupleLog(size_t arity, std::vector<size_t> columns);
  ~TupleLog();

  TupleLog(const TupleLog&) = delete;
  TupleLog& operator=(const TupleLog&) = delete;

  size_t arity() const { return arity_; }

  /// Whether `column` has an index, i.e. may be passed to First()/Next().
  bool indexed(size_t column) const { return position_[column] != kUnindexed; }

  /// Entries appended so far. Exact on the writer thread; readers use the
  /// watermark they were handed instead.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Writer only. Appends `tuple` unless an equal entry exists and returns
  /// whether it did. `tuple.arity()` must equal arity().
  bool Append(Tuple tuple);

  /// Entry `i`, for `i` below the caller's watermark.
  const Tuple& at(size_t i) const {
    const Slot s = Locate(i);
    return chunks_[s.chunk].load(std::memory_order_acquire)->tuples[s.offset];
  }

  /// True iff an entry equal to `tuple` lies below `watermark`.
  bool Contains(const Tuple& tuple, size_t watermark) const;

  /// The oldest entry below `watermark` whose value at the indexed `column`
  /// equals `key`, or kNone.
  size_t First(size_t column, const Value& key, size_t watermark) const;

  /// The next newer entry after `entry` with the same value at the indexed
  /// `column`, if it lies below `watermark`; else kNone.
  size_t Next(size_t column, size_t entry, size_t watermark) const {
    const uint32_t next =
        Link(entry, position_[column]).load(std::memory_order_acquire);
    return next == 0 || next - 1 >= watermark ? kNone : next - 1;
  }

 private:
  static constexpr size_t kFirstChunkLog2 = 3;
  // Entry numbers are 32-bit; 29 doubling chunks from 8 cover all of them.
  static constexpr size_t kMaxChunks = 29;
  static constexpr uint32_t kUnindexed = UINT32_MAX;

  struct Chunk {
    Chunk(size_t slots, size_t indexed);
    std::unique_ptr<Tuple[]> tuples;
    // links[slot * indexed + position]: for the column at that position of
    // `indexed_`, the next newer entry + 1, or 0 for none.
    std::unique_ptr<std::atomic<uint32_t>[]> links;
  };

  /// Open addressing with linear probing, kept at most half full. A slot
  /// packs a 32-bit hash tag (which also picks the home position) above
  /// entry + 1; 0 is empty.
  struct Table {
    Table(size_t capacity, bool with_tails);
    size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
    // Writer-only: the newest entry of each slot's chain (column tables).
    std::unique_ptr<uint32_t[]> tails;
  };

  struct Slot {
    size_t chunk;
    size_t offset;
  };
  static Slot Locate(size_t i) {
    const size_t chunk = std::bit_width((i >> kFirstChunkLog2) + 1) - 1;
    return {chunk, i - (((size_t{1} << chunk) - 1) << kFirstChunkLog2)};
  }

  std::atomic<uint32_t>& Link(size_t entry, size_t position) const {
    const Slot s = Locate(entry);
    return chunks_[s.chunk]
        .load(std::memory_order_acquire)
        ->links[s.offset * indexed_.size() + position];
  }

  /// Contains() for a tuple whose hash tag is already known.
  bool Find(const Tuple& tuple, uint32_t tag, size_t watermark) const;
  /// Writer only: grows `*table` (doubling, retiring the old table) if
  /// holding `keys` keys would pass half load, and returns the table to
  /// insert into.
  Table* Reserve(std::atomic<Table*>* table, size_t keys, bool with_tails);
  void IndexColumn(size_t position, size_t entry);

  const size_t arity_;
  std::vector<size_t> indexed_;     // Indexed columns, ascending.
  std::vector<uint32_t> position_;  // Per column: its place in indexed_.
  std::atomic<size_t> size_{0};
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::atomic<Table*> members_{nullptr};
  // One table per indexed column, in indexed_ order.
  std::unique_ptr<std::atomic<Table*>[]> columns_;
  // Writer-only bookkeeping.
  std::vector<size_t> column_keys_;  // Distinct keys per indexed column.
  std::vector<std::unique_ptr<Table>> tables_;  // Every table ever built.
};

/// What evaluation reads: one relation's log up to a watermark. The live
/// Database hands out views at the log's current size, an MVCC snapshot at
/// the size it recorded when published. A default view stands for a missing
/// relation.
class LogView {
 public:
  LogView() = default;
  LogView(const TupleLog* log, size_t watermark)
      : log_(log), watermark_(watermark) {}

  explicit operator bool() const { return log_ != nullptr; }
  size_t size() const { return watermark_; }
  size_t arity() const { return log_->arity(); }
  const Tuple& at(size_t i) const { return log_->at(i); }

  bool Contains(const Tuple& tuple) const {
    return log_->Contains(tuple, watermark_);
  }
  size_t First(size_t column, const Value& key) const {
    return log_->First(column, key, watermark_);
  }
  size_t Next(size_t column, size_t entry) const {
    return log_->Next(column, entry, watermark_);
  }

 private:
  const TupleLog* log_ = nullptr;
  size_t watermark_ = 0;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_TUPLE_LOG_H_
