#include "src/relational/value.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/string_util.h"

namespace p2pdb::rel {

namespace {

/// The process-wide string dictionary behind Value::Str. Append-only: an id,
/// once handed out, names the same string until the process exits.
///
/// Layout and concurrency follow TupleLog (tuple_log.h), with a mutex in
/// place of the single writer:
///  * Strings live in chunks of 64, 128, 256, ... entries, so an entry never
///    moves; chunk pointers are atomics.
///  * An open-addressing table, at most half full, maps a string to its id.
///    A slot packs the high 32 bits of the string's hash above id + 1.
///  * Intern() probes the current table with acquire loads and no lock. A
///    miss takes the mutex, probes again, and appends: the entry is written
///    before the slot that names it is release-stored, and a grown table is
///    filled before its pointer is. Replaced tables are never written again
///    and never freed, so a reader still probing one is safe; a string it
///    misses there is found again under the mutex.
class Dictionary {
 public:
  uint32_t Intern(std::string_view s) {
    const uint64_t hash = std::hash<std::string_view>{}(s);
    uint32_t id = Find(table_.load(std::memory_order_acquire), s, hash);
    if (id != kMissing) return id;

    std::lock_guard<std::mutex> lock(mu_);
    Table* table = table_.load(std::memory_order_relaxed);
    id = Find(table, s, hash);
    if (id != kMissing) return id;
    if (size_ == kMissing) std::abort();  // 4G distinct strings.
    id = size_;
    const Slot at = Locate(id);
    Entry* chunk = chunks_[at.chunk].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Entry[size_t{1} << (kFirstChunkLog2 + at.chunk)];
      chunks_[at.chunk].store(chunk, std::memory_order_release);
    }
    chunk[at.offset].text.assign(s);
    chunk[at.offset].hash = hash;
    table = Reserve(table);
    Insert(table, hash, id);
    ++size_;
    return id;
  }

  const std::string& Get(uint64_t id) const { return At(id).text; }

 private:
  static constexpr uint32_t kMissing = UINT32_MAX;
  static constexpr size_t kFirstChunkLog2 = 6;
  // 27 doubling chunks from 64 cover every 32-bit id.
  static constexpr size_t kMaxChunks = 27;
  static constexpr size_t kFirstTableCapacity = 1024;

  struct Entry {
    std::string text;
    uint64_t hash = 0;
  };
  struct Table {
    explicit Table(size_t capacity)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<uint64_t>[]>(capacity)) {}
    size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };
  struct Slot {
    size_t chunk;
    size_t offset;
  };

  static Slot Locate(size_t i) {
    const size_t chunk = std::bit_width((i >> kFirstChunkLog2) + 1) - 1;
    return {chunk, i - (((size_t{1} << chunk) - 1) << kFirstChunkLog2)};
  }
  static uint64_t Pack(uint64_t hash, uint32_t id) {
    return (hash & 0xffffffff00000000ULL) | (uint64_t{id} + 1);
  }

  const Entry& At(uint64_t id) const {
    const Slot at = Locate(id);
    return chunks_[at.chunk].load(std::memory_order_acquire)[at.offset];
  }

  uint32_t Find(const Table* table, std::string_view s, uint64_t hash) const {
    if (table == nullptr) return kMissing;
    for (size_t pos = hash & table->mask;; pos = (pos + 1) & table->mask) {
      const uint64_t slot = table->slots[pos].load(std::memory_order_acquire);
      if (slot == 0) return kMissing;
      if ((slot ^ hash) >> 32 != 0) continue;
      const uint32_t id = static_cast<uint32_t>(slot) - 1;
      if (At(id).text == s) return id;
    }
  }

  static void Insert(Table* table, uint64_t hash, uint32_t id) {
    size_t pos = hash & table->mask;
    while (table->slots[pos].load(std::memory_order_relaxed) != 0) {
      pos = (pos + 1) & table->mask;
    }
    table->slots[pos].store(Pack(hash, id), std::memory_order_release);
  }

  /// Under mu_: the table to insert one more string into, grown (and the old
  /// one retired) if that would pass half load.
  Table* Reserve(Table* old) {
    if (old != nullptr && 2 * (size_t{size_} + 1) <= old->mask + 1) return old;
    auto grown = std::make_unique<Table>(
        old == nullptr ? kFirstTableCapacity : 2 * (old->mask + 1));
    for (uint32_t id = 0; id < size_; ++id) {
      Insert(grown.get(), At(id).hash, id);
    }
    Table* raw = grown.get();
    table_.store(raw, std::memory_order_release);
    tables_.push_back(std::move(grown));
    return raw;
  }

  std::atomic<Entry*> chunks_[kMaxChunks] = {};
  std::atomic<Table*> table_{nullptr};
  std::mutex mu_;
  uint32_t size_ = 0;                           // Under mu_.
  std::vector<std::unique_ptr<Table>> tables_;  // Under mu_; every table.
};

Dictionary& Strings() {
  static Dictionary* const dictionary = new Dictionary;  // Never destroyed.
  return *dictionary;
}

}  // namespace

Value Value::Str(std::string_view v) {
  return Value(ValueKind::kString, Strings().Intern(v));
}

const std::string& Value::AsStr() const { return Strings().Get(payload_); }

bool Value::operator<(const Value& other) const {
  if (kind_ != other.kind_) return kind_ < other.kind_;
  switch (kind_) {
    case ValueKind::kInt:
      return AsInt() < other.AsInt();
    case ValueKind::kNull:
      return payload_ < other.payload_;
    case ValueKind::kString:
      return payload_ != other.payload_ && AsStr() < other.AsStr();
  }
  return false;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kInt:
      return std::to_string(AsInt());
    case ValueKind::kString:
      return "\"" + AsStr() + "\"";
    case ValueKind::kNull:
      return StrFormat("_:%u.%u", NullFactory::NodeOf(null_id()),
                       NullFactory::SeqOf(null_id()) & 0xffffffu);
  }
  return "?";
}

Result<Value> NullFactory::Fresh(uint32_t base_depth) {
  if (next_seq_ > kMaxSeq) {
    return Status::ResourceExhausted(
        StrFormat("node %u has minted every labeled null", node_id_));
  }
  uint32_t depth = base_depth + 1;
  if (depth > 255) depth = 255;
  uint32_t seq = next_seq_++ | (depth << 24);
  uint64_t id = (static_cast<uint64_t>(node_id_) << 32) | seq;
  return Value::Null(id);
}

}  // namespace p2pdb::rel
