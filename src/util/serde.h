// Binary serialization used to measure the on-wire size of protocol messages
// (the paper's statistics module reports "volumes of data transferred onto
// pipes"); also exercised by tests as a round-trip invariant.
#ifndef P2PDB_UTIL_SERDE_H_
#define P2PDB_UTIL_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace p2pdb {

/// Appends little-endian/varint-encoded primitives to a byte buffer.
class Writer {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Zig-zag + varint for signed values.
  void PutI64(int64_t v);
  /// Length-prefixed bytes.
  void PutString(std::string_view s);
  /// Raw bytes, verbatim (pre-encoded sub-buffers, e.g. framed payloads).
  void PutRaw(const uint8_t* data, size_t size);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  /// Moves the accumulated buffer out, leaving the Writer empty.
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Encoded size of PutVarint(v), without writing anything.
size_t VarintLength(uint64_t v);

/// Non-owning view of encoded bytes. Decode entry points take this so owned
/// buffers and zero-copy payload views (net::Payload borrowing a transport
/// read buffer) decode through the same signature without a copy.
struct ByteView {
  const uint8_t* data = nullptr;
  size_t size = 0;

  ByteView() = default;
  ByteView(const uint8_t* d, size_t n) : data(d), size(n) {}
  ByteView(const std::vector<uint8_t>& v) : data(v.data()), size(v.size()) {}
};

/// Reads values written by Writer, with bounds checking.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  explicit Reader(ByteView bytes) : data_(bytes.data), size_(bytes.size) {}
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<uint64_t> GetVarint();
  Result<int64_t> GetI64();
  Result<std::string> GetString();
  /// GetString() without the copy: the view aliases the Reader's buffer.
  Result<std::string_view> GetStringView();
  /// A pointer to the next `n` bytes, advancing past them — zero-copy access
  /// to an embedded sub-buffer (e.g. a batched message payload). The pointer
  /// aliases the Reader's underlying buffer.
  Result<const uint8_t*> GetRaw(size_t n);

  /// True when all bytes have been consumed.
  bool AtEnd() const { return pos_ == size_; }
  /// A payload decoder's last step: fails when bytes are left over, so a
  /// payload is decoded whole or rejected.
  Status ExpectEnd() const;
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace p2pdb

#endif  // P2PDB_UTIL_SERDE_H_
