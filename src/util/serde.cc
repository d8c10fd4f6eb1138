#include "src/util/serde.h"

namespace p2pdb {

void Writer::PutU8(uint8_t v) { bytes_.push_back(v); }

void Writer::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(v));
}

void Writer::PutI64(int64_t v) {
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  PutVarint(zz);
}

void Writer::PutString(std::string_view s) {
  PutVarint(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void Writer::PutRaw(const uint8_t* data, size_t size) {
  if (size == 0) return;  // data may be null for an empty buffer.
  bytes_.insert(bytes_.end(), data, data + size);
}

size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

Result<uint8_t> Reader::GetU8() {
  if (pos_ + 1 > size_) return Status::OutOfRange("GetU8 past end");
  return data_[pos_++];
}

Result<uint32_t> Reader::GetU32() {
  if (pos_ + 4 > size_) return Status::OutOfRange("GetU32 past end");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::GetU64() {
  if (pos_ + 8 > size_) return Status::OutOfRange("GetU64 past end");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<uint64_t> Reader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::OutOfRange("GetVarint past end");
    if (shift > 63) return Status::ParseError("varint too long");
    uint8_t b = data_[pos_++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<int64_t> Reader::GetI64() {
  auto zz = GetVarint();
  if (!zz.ok()) return zz.status();
  uint64_t u = *zz;
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Result<const uint8_t*> Reader::GetRaw(size_t n) {
  // Against remaining(), not pos_ + n, which a hostile length can wrap.
  if (n > remaining()) return Status::OutOfRange("GetRaw past end");
  const uint8_t* out = data_ + pos_;
  pos_ += n;
  return out;
}

Status Reader::ExpectEnd() const {
  if (AtEnd()) return Status::OK();
  return Status::ParseError(std::to_string(remaining()) +
                            " trailing bytes after payload");
}

Result<std::string> Reader::GetString() {
  auto s = GetStringView();
  if (!s.ok()) return s.status();
  return std::string(*s);
}

Result<std::string_view> Reader::GetStringView() {
  auto len = GetVarint();
  if (!len.ok()) return len.status();
  if (*len > remaining()) return Status::OutOfRange("GetString past end");
  std::string_view s(reinterpret_cast<const char*>(data_ + pos_),
                     static_cast<size_t>(*len));
  pos_ += static_cast<size_t>(*len);
  return s;
}

}  // namespace p2pdb
