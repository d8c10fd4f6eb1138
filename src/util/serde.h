// Binary serialization used to measure the on-wire size of protocol messages
// (the paper's statistics module reports "volumes of data transferred onto
// pipes"); also exercised by tests as a round-trip invariant.
//
// Writer and Reader are the primitives. A format built from them is written
// down once, as a field list: a function template
//
//   template <class IO>
//   void Fields(IO& io, FieldRef<IO, Token> x) {
//     io.U32(x.leader);
//     io.U64(x.sum_sent);
//     io.U64(x.sum_recv);
//     io.Bool(x.all_ready);
//   }
//
// that names every field of a value with the call for its encoding. Run
// through an Encoder, the list writes the value (or, over a ByteCounter,
// measures it); run through a Decoder, it reads one. Encoder and decoder
// therefore agree by construction. A Decoder keeps the first error and turns
// every later call into a no-op, so a field list has no error handling of
// its own, and DecodeFields ends with the trailing-bytes check.
#ifndef P2PDB_UTIL_SERDE_H_
#define P2PDB_UTIL_SERDE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

  /// Equal bytes, wherever each side keeps them.
  friend bool operator==(ByteView a, ByteView b) {
    return std::equal(a.data, a.data + a.size, b.data, b.data + b.size);
  }
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

/// Counts the bytes a Writer would append: an Encoder over one measures a
/// field list of bytes and varints (the message header) without writing it.
class ByteCounter {
 public:
  void PutU8(uint8_t) { size_ += 1; }
  void PutVarint(uint64_t v) { size_ += VarintLength(v); }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

/// How a field list takes its value: `T&` from a Decoder, which fills it in,
/// and `const T&` from an Encoder, which only reads it.
template <class IO, class T>
using FieldRef = std::conditional_t<IO::kDecodes, T&, const T&>;

/// Runs a field list forwards, appending each field to a Writer (or to a
/// ByteCounter).
template <class Out>
class Encoder {
 public:
  static constexpr bool kDecodes = false;

  explicit Encoder(Out* out) : out_(out) {}

  void U8(uint8_t v) { out_->PutU8(v); }
  void U32(uint32_t v) { out_->PutU32(v); }
  void U64(uint64_t v) { out_->PutU64(v); }
  /// Unsigned LEB128.
  void Varint(uint64_t v) { out_->PutVarint(v); }
  void Bool(bool v) { out_->PutU8(v ? 1 : 0); }
  /// Length-prefixed, like Bytes.
  void Str(std::string_view s) { out_->PutString(s); }
  void Bytes(const std::vector<uint8_t>& bytes) {
    out_->PutVarint(bytes.size());
    out_->PutRaw(bytes.data(), bytes.size());
  }
  /// One byte. Decoding rejects a value above the second argument, naming
  /// the field by the third.
  template <class E>
  void Enum(E v, E, const char*) { out_->PutU8(static_cast<uint8_t>(v)); }
  /// A condition decoding checks; an encoder trusts its values.
  void Check(bool, const char*) {}
  /// A varint count, then `field(item)` for each item.
  template <class C, class F>
  void Each(const C& items, F&& field) {
    out_->PutVarint(items.size());
    for (const auto& item : items) field(item);
  }
  /// A field with a codec of its own: `encode(v, writer)`, and for decoding
  /// `decode(reader)`, which returns a Result.
  template <class T, class Encode, class Decode>
  void Use(const T& v, Encode&& encode, Decode&&) { encode(v, out_); }

 private:
  Out* out_;
};

/// Runs a field list backwards, filling each field from a Reader. The first
/// error is kept and every later call does nothing.
class Decoder {
 public:
  static constexpr bool kDecodes = true;

  explicit Decoder(Reader* in) : in_(in) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void U8(uint8_t& v) { Read(&Reader::GetU8, v); }
  void U32(uint32_t& v) { Read(&Reader::GetU32, v); }
  void U64(uint64_t& v) { Read(&Reader::GetU64, v); }
  /// Fails unless the value fits `T`.
  template <class T>
  void Varint(T& v) {
    static_assert(std::is_unsigned_v<T>);
    uint64_t raw = 0;
    Read(&Reader::GetVarint, raw);
    Check(static_cast<T>(raw) == raw, "varint overflows its field");
    if (ok()) v = static_cast<T>(raw);
  }
  /// Any nonzero byte reads as true.
  void Bool(bool& v) {
    uint8_t byte = 0;
    U8(byte);
    if (ok()) v = byte != 0;
  }
  void Str(std::string& s) { Read(&Reader::GetString, s); }
  void Bytes(std::vector<uint8_t>& bytes) {
    uint64_t size = 0;
    Varint(size);
    const uint8_t* data = nullptr;
    if (ok()) Take(in_->GetRaw(size), data);
    if (ok()) bytes.assign(data, data + size);
  }
  template <class E>
  void Enum(E& v, E max, const char* what) {
    uint8_t raw = 0;
    U8(raw);
    if (ok() && raw > static_cast<uint8_t>(max)) {
      status_ = Status::ParseError("unknown " + std::string(what) + " " +
                                   std::to_string(raw));
    }
    if (ok()) v = static_cast<E>(raw);
  }
  void Check(bool holds, const char* what) {
    if (ok() && !holds) status_ = Status::ParseError(what);
  }
  /// A varint count, then that many items: each is default-constructed,
  /// filled by `field(item)` and added to `items`, a later map entry
  /// replacing an earlier one with its key. Every item takes at least one
  /// byte, so a count past the bytes left fails before anything is read.
  template <class C, class F>
  void Each(C& items, F&& field) {
    uint64_t count = 0;
    Varint(count);
    Check(count <= in_->remaining(), "count past end");
    for (uint64_t i = 0; i < count && ok(); ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> item;
        field(item);
        if (ok()) items.insert_or_assign(item.first, std::move(item.second));
      } else {
        typename C::value_type item{};
        field(item);
        if (ok()) items.insert(items.end(), std::move(item));
      }
    }
  }
  template <class T, class Encode, class Decode>
  void Use(T& v, Encode&&, Decode&& decode) {
    if (ok()) Take(decode(in_), v);
  }

 private:
  template <class R, class T>
  void Read(Result<R> (Reader::*get)(), T& v) {
    if (ok()) Take((in_->*get)(), v);
  }
  template <class R, class T>
  void Take(Result<R>&& result, T& v) {
    if (result.ok()) {
      v = std::move(*result);
    } else {
      status_ = result.status();
    }
  }

  Reader* in_;
  Status status_;
};

/// Appends `x`'s field list to `w`.
template <class T>
void WriteFields(const T& x, Writer* w) {
  Encoder<Writer> out(w);
  Fields(out, x);
}

/// The bytes of `x`'s field list.
template <class T>
std::vector<uint8_t> EncodeFields(const T& x) {
  Writer w;
  WriteFields(x, &w);
  return w.TakeBytes();
}

/// Reads one `T` through its field list from `r`, which may hold more.
template <class T>
Result<T> ReadFields(Reader* r) {
  Decoder in(r);
  T x{};
  Fields(in, x);
  if (!in.ok()) return in.status();
  return x;
}

/// Decodes `bytes` as one whole `T`: any field's error fails, and so do
/// bytes left over.
template <class T>
Result<T> DecodeFields(ByteView bytes) {
  Reader r(bytes);
  Result<T> x = ReadFields<T>(&r);
  if (x.ok()) P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return x;
}

}  // namespace p2pdb

#endif  // P2PDB_UTIL_SERDE_H_
