// TupleLog: the append-only store behind every relation. The update protocol
// is monotone (the chase only inserts and Section 4 never retracts data), so
// any earlier state of a relation is a prefix of its log. An MVCC snapshot
// therefore copies nothing: it reads each log up to the size its version row
// recorded (src/relational/mvcc.h), and publishing a delta batch costs
// O(#relations).
//
// Layout:
//  * Storage: entries live inline in chunks of 8, 16, 32, ... slots, each
//    slot `arity` values back to back, so an entry never moves once written,
//    the chunk directory is a fixed array, and no entry is a heap object of
//    its own. at() returns a Row view of the slot, valid for the log's life;
//    Append() copies the row's `arity` words only when the row is new.
//  * Membership: an open-addressing hash set of entry numbers, always kept.
//  * Column index, only for the columns the log is given at construction:
//    one open-addressing table per indexed column mapping a value to the
//    oldest entry holding it there, plus one `next` link per entry and
//    indexed column to the next newer entry with the same value in that
//    column. A lookup walks the chain from old to new and stops at the first
//    link at or above the reader's watermark, so it never touches a newer
//    entry. Three kinds of log exist (src/core/update.h says when the
//    update engine keeps the last two). A relation indexes every column,
//    since ad-hoc reads may look any of them up. A rule part's answer log,
//    read by the other parts' compiled join plans, indexes exactly the
//    columns those plans look up. A subscription's log of shipped answers
//    is only scanned and asked for membership, so it indexes none.
//
// Concurrency contract (one writer, any number of readers):
//  * Only the peer's serialized writer appends.
//  * The writer writes an entry's values into its slot before it
//    release-stores the hash slot or chain link that points at it, and never
//    writes that slot again.
//  * Chunk pointers and table pointers are atomics. A grown table is fully
//    populated before its pointer is release-stored.
//  * A hash table that growth has replaced is never written again. The old
//    tables stay owned by the log, so a reader still probing one is safe.
//  * Readers read only entries below their watermark, through Row views of
//    the slots. The watermark reaches them as a word of a version row that
//    SnapshotStore release-stores and they acquire-load, which orders every
//    write to those values before the read.
//  * Snapshots share their database's relation table, so a crashed peer's
//    last snapshot keeps its logs alive after the peer's Database is gone.
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

  /// Writer only. Appends a copy of `row` unless an equal entry exists and
  /// returns whether it did. `row.arity()` must equal arity(); `row` may
  /// view a scratch buffer the caller reuses.
  bool Append(Row row);

  /// Entry `i`, for `i` below the caller's watermark. The view stays valid
  /// for the log's life.
  Row at(size_t i) const {
    const Slot s = Locate(i);
    const Chunk* chunk = chunks_[s.chunk].load(std::memory_order_acquire);
    return Row(chunk->values.get() + s.offset * arity_, arity_);
  }

  /// True iff an entry equal to `row` lies below `watermark`.
  bool Contains(Row row, size_t watermark) const;

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
    Chunk(size_t slots, size_t arity, size_t indexed);
    // values[slot * arity + column]: the entries, inline.
    std::unique_ptr<Value[]> values;
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

  /// Contains() for a row whose hash tag is already known.
  bool Find(Row row, uint32_t tag, size_t watermark) const;
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
  Row at(size_t i) const { return log_->at(i); }

  bool Contains(Row row) const { return log_->Contains(row, watermark_); }
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
