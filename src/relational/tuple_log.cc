#include "src/relational/tuple_log.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <numeric>

namespace p2pdb::rel {

namespace {

constexpr size_t kFirstTableCapacity = 16;
// Entry + 1 must fit the 32-bit link and slot fields.
constexpr size_t kMaxEntries = UINT32_MAX - 1;

/// Finalizes a hash into a well-mixed 32-bit tag (murmur3's fmix64).
/// Value::Hash does not mix: integers and interned string ids are small,
/// dense integers, and their low bits alone would cluster probe runs.
uint32_t Tag(size_t h) {
  uint64_t x = h;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x);
}

uint64_t Pack(uint32_t tag, size_t entry) {
  return (static_cast<uint64_t>(tag) << 32) | (entry + 1);
}
uint32_t TagOf(uint64_t slot) { return static_cast<uint32_t>(slot >> 32); }
size_t EntryOf(uint64_t slot) { return (slot & 0xffffffffu) - 1; }

}  // namespace

TupleLog::Chunk::Chunk(size_t slots, size_t arity, size_t indexed)
    : values(std::make_unique<Value[]>(slots * arity)),
      links(std::make_unique<std::atomic<uint32_t>[]>(slots * indexed)) {}

TupleLog::Table::Table(size_t capacity, bool with_tails)
    : mask(capacity - 1),
      slots(std::make_unique<std::atomic<uint64_t>[]>(capacity)) {
  if (with_tails) tails = std::make_unique<uint32_t[]>(capacity);
}

TupleLog::TupleLog(size_t arity)
    : TupleLog(arity, [arity] {
        std::vector<size_t> all(arity);
        std::iota(all.begin(), all.end(), size_t{0});
        return all;
      }()) {}

TupleLog::TupleLog(size_t arity, std::vector<size_t> columns)
    : arity_(arity),
      indexed_(std::move(columns)),
      position_(arity, kUnindexed) {
  std::sort(indexed_.begin(), indexed_.end());
  indexed_.erase(std::unique(indexed_.begin(), indexed_.end()),
                 indexed_.end());
  for (size_t i = 0; i < indexed_.size(); ++i) {
    assert(indexed_[i] < arity_);
    position_[indexed_[i]] = static_cast<uint32_t>(i);
  }
  columns_ = std::make_unique<std::atomic<Table*>[]>(indexed_.size());
  column_keys_.assign(indexed_.size(), 0);
}

TupleLog::~TupleLog() {
  for (auto& chunk : chunks_) delete chunk.load(std::memory_order_relaxed);
}

bool TupleLog::Append(Row row) {
  assert(row.arity() == arity_);
  const size_t n = size_.load(std::memory_order_relaxed);
  const uint32_t tag = Tag(row.Hash());
  if (Find(row, tag, n)) return false;
  if (n >= kMaxEntries) std::abort();  // 4G tuples in one relation.

  const Slot s = Locate(n);
  Chunk* chunk = chunks_[s.chunk].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk(size_t{1} << (kFirstChunkLog2 + s.chunk), arity_,
                      indexed_.size());
    chunks_[s.chunk].store(chunk, std::memory_order_release);
  }
  std::copy(row.begin(), row.end(), chunk->values.get() + s.offset * arity_);

  for (size_t position = 0; position < indexed_.size(); ++position) {
    IndexColumn(position, n);
  }

  Table* members = Reserve(&members_, n + 1, /*with_tails=*/false);
  size_t pos = tag & members->mask;
  while (members->slots[pos].load(std::memory_order_relaxed) != 0) {
    pos = (pos + 1) & members->mask;
  }
  members->slots[pos].store(Pack(tag, n), std::memory_order_release);
  size_.store(n + 1, std::memory_order_release);
  return true;
}

void TupleLog::IndexColumn(size_t position, size_t entry) {
  const size_t column = indexed_[position];
  const Value& key = at(entry).at(column);
  const uint32_t tag = Tag(key.Hash());
  Table* table = columns_[position].load(std::memory_order_relaxed);
  if (table != nullptr) {
    for (size_t pos = tag & table->mask;; pos = (pos + 1) & table->mask) {
      const uint64_t slot = table->slots[pos].load(std::memory_order_relaxed);
      if (slot == 0) break;
      if (TagOf(slot) == tag && at(EntryOf(slot)).at(column) == key) {
        // Known value: chain the entry behind the newest one holding it.
        Link(table->tails[pos], position)
            .store(static_cast<uint32_t>(entry + 1), std::memory_order_release);
        table->tails[pos] = static_cast<uint32_t>(entry);
        return;
      }
    }
  }
  table = Reserve(&columns_[position], ++column_keys_[position],
                  /*with_tails=*/true);
  size_t pos = tag & table->mask;
  while (table->slots[pos].load(std::memory_order_relaxed) != 0) {
    pos = (pos + 1) & table->mask;
  }
  table->tails[pos] = static_cast<uint32_t>(entry);
  table->slots[pos].store(Pack(tag, entry), std::memory_order_release);
}

TupleLog::Table* TupleLog::Reserve(std::atomic<Table*>* table, size_t keys,
                                   bool with_tails) {
  Table* old = table->load(std::memory_order_relaxed);
  if (old != nullptr && 2 * keys <= old->mask + 1) return old;
  const size_t capacity =
      old == nullptr ? kFirstTableCapacity : 2 * (old->mask + 1);
  auto grown = std::make_unique<Table>(capacity, with_tails);
  if (old != nullptr) {
    for (size_t i = 0; i <= old->mask; ++i) {
      const uint64_t slot = old->slots[i].load(std::memory_order_relaxed);
      if (slot == 0) continue;
      size_t pos = TagOf(slot) & grown->mask;
      while (grown->slots[pos].load(std::memory_order_relaxed) != 0) {
        pos = (pos + 1) & grown->mask;
      }
      grown->slots[pos].store(slot, std::memory_order_relaxed);
      if (with_tails) grown->tails[pos] = old->tails[i];
    }
  }
  // The release store publishes the fully populated table; `old` is never
  // written again but stays alive for readers that already loaded it.
  Table* raw = grown.get();
  table->store(raw, std::memory_order_release);
  tables_.push_back(std::move(grown));
  return raw;
}

bool TupleLog::Contains(Row row, size_t watermark) const {
  return Find(row, Tag(row.Hash()), watermark);
}

bool TupleLog::Find(Row row, uint32_t tag, size_t watermark) const {
  const Table* table = members_.load(std::memory_order_acquire);
  if (table == nullptr || watermark == 0) return false;
  for (size_t pos = tag & table->mask;; pos = (pos + 1) & table->mask) {
    const uint64_t slot = table->slots[pos].load(std::memory_order_acquire);
    if (slot == 0) return false;
    if (TagOf(slot) != tag) continue;
    const size_t entry = EntryOf(slot);
    if (entry < watermark && at(entry) == row) return true;
  }
}

size_t TupleLog::First(size_t column, const Value& key,
                       size_t watermark) const {
  assert(indexed(column));
  const Table* table =
      columns_[position_[column]].load(std::memory_order_acquire);
  if (table == nullptr || watermark == 0) return kNone;
  const uint32_t tag = Tag(key.Hash());
  for (size_t pos = tag & table->mask;; pos = (pos + 1) & table->mask) {
    const uint64_t slot = table->slots[pos].load(std::memory_order_acquire);
    if (slot == 0) return kNone;
    if (TagOf(slot) != tag) continue;
    // A chain head at or above the watermark means the value is newer than
    // this reader (or a different value with the same tag): keep probing.
    const size_t head = EntryOf(slot);
    if (head < watermark && at(head).at(column) == key) return head;
  }
}

}  // namespace p2pdb::rel
