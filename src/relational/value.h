// Value: a typed database constant. The paper assumes shared constants act as
// URIs across nodes; existential head variables are materialized as *labeled
// nulls* with network-unique identifiers (algorithm A6: "insert ... with new
// values for existential").
//
// A Value is one 16-byte word: a kind byte and a 64-bit payload holding the
// integer, the null id, or the id of a string in a process-wide, append-only
// dictionary (private to value.cc). Hashing, equality and copies are therefore
// integer operations whatever the kind. The dictionary is built on first use
// and never destroyed; it finds a known string without a lock or an
// allocation and never moves a string, so AsStr() references stay valid for
// the life of the process on every thread. Ids are local to one process:
// ordering compares string content, and every encoded format (wire, log,
// snapshot) carries the string itself (see codec.h).
#ifndef P2PDB_RELATIONAL_VALUE_H_
#define P2PDB_RELATIONAL_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/util/status.h"

namespace p2pdb::rel {

enum class ValueKind : uint8_t { kInt = 0, kString = 1, kNull = 2 };

/// An atomic value: 64-bit integer, string, or labeled null.
class Value {
 public:
  Value() = default;  // Int(0).

  static Value Int(int64_t v) {
    return Value(ValueKind::kInt, static_cast<uint64_t>(v));
  }
  /// Interns `v` (see the file comment).
  static Value Str(std::string_view v);
  /// A labeled null with a network-unique identifier (see NullFactory).
  static Value Null(uint64_t id) { return Value(ValueKind::kNull, id); }

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }

  int64_t AsInt() const { return static_cast<int64_t>(payload_); }
  /// The string's dictionary entry; valid for the life of the process.
  const std::string& AsStr() const;
  uint64_t null_id() const { return payload_; }

  bool operator==(const Value& other) const {
    return kind_ == other.kind_ && payload_ == other.payload_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  /// Total order: by kind, then by payload, strings by content. Gives
  /// relations a deterministic iteration order regardless of insertion order
  /// (and of the order strings were interned in).
  bool operator<(const Value& other) const;

  /// Not mixed: ints and interned ids are small and dense, so hash tables
  /// finalize it (see tuple_log.cc).
  size_t Hash() const {
    return (static_cast<size_t>(kind_) * 0x9e3779b97f4a7c15ULL) ^
           (payload_ * 0xbf58476d1ce4e5b9ULL);
  }

  /// Human-readable form: 42, "paper", or _:<node>.<seq> for nulls.
  std::string ToString() const;

 private:
  Value(ValueKind kind, uint64_t payload) : kind_(kind), payload_(payload) {}

  ValueKind kind_ = ValueKind::kInt;
  uint64_t payload_ = 0;  // Integer bits, null id, or string id.
};

static_assert(sizeof(Value) == 16);
static_assert(std::is_trivially_copyable_v<Value>);

/// Mints fresh labeled nulls. Each factory is owned by one node; the node id is
/// packed into the high bits so that ids are unique across the whole network
/// without coordination. Tracks an "invention depth" per null: a null created
/// from a binding that already contains nulls is one level deeper than the
/// deepest of those. The depth bound is the chase-termination safeguard used by
/// the update engine for rule sets that are not weakly acyclic.
class NullFactory {
 public:
  /// Sequence numbers are 24 bits; a factory mints at most this many nulls.
  static constexpr uint32_t kMaxSeq = 0xffffff;

  explicit NullFactory(uint32_t node_id) : node_id_(node_id) {}

  /// Creates a fresh null whose depth is `base_depth + 1`, or
  /// ResourceExhausted once every sequence number has been minted: a wrapped
  /// counter would hand out an id already in use and merge two witnesses.
  Result<Value> Fresh(uint32_t base_depth = 0);

  /// Extracts the minting node from any null id.
  static uint32_t NodeOf(uint64_t null_id) {
    return static_cast<uint32_t>(null_id >> 32);
  }
  static uint32_t SeqOf(uint64_t null_id) {
    return static_cast<uint32_t>(null_id & 0xffffffffu);
  }
  /// Depth is carried in the value itself so it survives network transfer:
  /// the top 8 bits of the sequence number encode min(depth, 255).
  static uint32_t DepthBitsOf(uint64_t null_id) {
    return (SeqOf(null_id) >> 24) & 0xffu;
  }

  /// Advances the counter so the next Fresh() mints a sequence strictly above
  /// `seq` (the low 24 bits of an existing id). Used after crash recovery:
  /// a restarted factory must not re-mint ids already in the recovered
  /// database.
  void ReserveThrough(uint32_t seq) {
    if (next_seq_ <= seq) next_seq_ = seq + 1;
  }

 private:
  uint32_t node_id_;
  uint32_t next_seq_ = 0;
};

}  // namespace p2pdb::rel

namespace std {
template <>
struct hash<p2pdb::rel::Value> {
  size_t operator()(const p2pdb::rel::Value& v) const { return v.Hash(); }
};
}  // namespace std

#endif  // P2PDB_RELATIONAL_VALUE_H_
