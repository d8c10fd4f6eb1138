#include "src/net/frame.h"

#include <algorithm>

#include "src/util/crc32.h"
#include "src/util/serde.h"

namespace p2pdb::net {

namespace {

constexpr size_t kLengthBytes = 4;
constexpr size_t kCrcBytes = 4;

/// The message header: type, from, to, seq, then the trace context. Both
/// frame encoders, both frame decoders and Message::WireSize run this list;
/// `m` is a Message when encoding and a FrameView when decoding. A decoded
/// type still has to pass IsKnownMessageType.
template <class IO, class M>
void HeaderFields(IO& io, M& m) {
  io.Enum(m.type, MessageType::kShutdown, "message type");
  io.Varint(m.from);
  io.Varint(m.to);
  io.Varint(m.seq);
  io.Varint(m.trace.trace_id);
  io.Varint(m.trace.parent_span);
  io.Varint(m.trace.hop);
}

uint32_t ReadLengthField(const uint8_t* data) {
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(data[i]) << (8 * i);
  }
  return length;
}

/// Decodes the bytes after the length field (crc + header + payload), whose
/// extent `size` the caller has already established from that field. The
/// returned view's payload aliases `data`.
Result<FrameView> DecodeFrameBody(const uint8_t* data, size_t size) {
  Reader r(data, size);
  auto crc = r.GetU32();
  if (!crc.ok()) return Status::ParseError("frame shorter than its CRC");
  if (Crc32(data + kCrcBytes, size - kCrcBytes) != *crc) {
    return Status::ParseError("frame CRC mismatch");
  }
  FrameView view;
  Decoder in(&r);
  HeaderFields(in, view);
  if (!in.ok()) {
    return Status::ParseError("bad frame header: " + in.status().message());
  }
  const auto type = static_cast<uint8_t>(view.type);
  if (!IsKnownMessageType(type)) {
    return Status::ParseError("unknown message type " + std::to_string(type));
  }
  view.payload = data + (size - r.remaining());
  view.payload_size = r.remaining();
  return view;
}

/// One parse of a kBatch payload; emits a FrameView per inner message to
/// `sink` when non-null. Inner entries alias the outer frame's payload
/// buffer (already CRC-verified), so the views are zero-copy.
Status WalkBatch(const FrameView& outer,
                 const std::function<void(const FrameView&)>* sink) {
  Reader r(outer.payload, outer.payload_size);
  Decoder in(&r);
  uint64_t count = 0;
  in.Varint(count);
  if (in.ok() && count == 0) return Status::ParseError("empty batch frame");
  for (uint64_t i = 0; i < count && in.ok(); ++i) {
    FrameView view;
    HeaderFields(in, view);
    in.Varint(view.payload_size);
    if (!in.ok()) break;
    const auto type = static_cast<uint8_t>(view.type);
    if (!IsKnownMessageType(type) || view.type == MessageType::kBatch ||
        view.type == MessageType::kCredit) {
      return Status::ParseError("bad batched message type " +
                                std::to_string(type));
    }
    auto payload = r.GetRaw(view.payload_size);
    if (!payload.ok()) {
      return Status::ParseError("truncated batched message payload");
    }
    view.payload = *payload;
    if (sink != nullptr) (*sink)(view);
  }
  if (!in.ok()) {
    return Status::ParseError("bad batched message header: " +
                              in.status().message());
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in batch frame");
  return Status::OK();
}

/// Unpacks a kBatch frame all-or-nothing: a validation pass first, so a
/// malformed entry anywhere — truncated header, unknown or nested type,
/// short payload, trailing bytes — rejects the whole batch before any sink
/// fires, matching the frame-level delivery contract. The second pass only
/// re-reads the (cheap, varint) headers; payloads are never copied.
Status UnpackBatch(const FrameView& outer,
                   const std::function<void(const FrameView&)>& sink) {
  Status valid = WalkBatch(outer, nullptr);
  if (!valid.ok()) return valid;
  return WalkBatch(outer, &sink);
}

}  // namespace

size_t Message::WireSize() const {
  ByteCounter header;
  Encoder<ByteCounter> out(&header);
  HeaderFields(out, *this);
  return kLengthBytes + kCrcBytes + header.size() + payload.size();
}

Message FrameView::ToMessage() const {
  Message msg = BorrowMessage();
  msg.payload.EnsureOwned();
  return msg;
}

Message FrameView::BorrowMessage() const {
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = to;
  msg.seq = seq;
  msg.trace = trace;
  msg.payload = Payload::Borrow(payload, payload_size);
  return msg;
}

std::vector<uint8_t> EncodeBatchFrame(const std::vector<Message>& msgs) {
  Writer body;
  Encoder<Writer> out(&body);
  body.PutVarint(msgs.size());
  for (const Message& m : msgs) {
    HeaderFields(out, m);
    body.PutVarint(m.payload.size());
    body.PutRaw(m.payload.data(), m.payload.size());
  }
  Message outer;
  outer.type = MessageType::kBatch;
  outer.from = msgs.front().from;
  outer.to = msgs.front().to;
  outer.seq = msgs.front().seq;
  outer.payload = body.TakeBytes();
  return EncodeFrame(outer);
}

std::vector<uint8_t> EncodeCreditFrame(NodeId from, uint64_t frames_consumed) {
  Writer body;
  body.PutVarint(frames_consumed);
  Message credit;
  credit.type = MessageType::kCredit;
  credit.from = from;
  credit.to = kNoNode;  // Connection-scoped: no destination peer.
  credit.payload = body.TakeBytes();
  return EncodeFrame(credit);
}

Result<uint64_t> DecodeCreditPayload(const FrameView& view) {
  Reader r(view.payload, view.payload_size);
  auto consumed = r.GetVarint();
  if (!consumed.ok() || !r.AtEnd()) {
    return Status::ParseError("malformed credit frame payload");
  }
  return *consumed;
}

std::vector<uint8_t> EncodeFrame(const Message& msg) {
  Writer header;
  Encoder<Writer> out(&header);
  HeaderFields(out, msg);
  const std::vector<uint8_t>& head = header.bytes();

  uint32_t crc = Crc32Finish(
      Crc32Update(Crc32Update(kCrc32Init, head.data(), head.size()),
                  msg.payload.data(), msg.payload.size()));
  Writer frame;
  frame.PutU32(
      static_cast<uint32_t>(kCrcBytes + head.size() + msg.payload.size()));
  frame.PutU32(crc);
  frame.PutRaw(head.data(), head.size());
  frame.PutRaw(msg.payload.data(), msg.payload.size());
  return frame.TakeBytes();
}

Result<Message> DecodeFrame(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  auto length = r.GetU32();
  if (!length.ok()) return Status::ParseError("frame shorter than its length");
  if (*length > kMaxFrameBytes) {
    return Status::ParseError("frame length " + std::to_string(*length) +
                              " exceeds limit");
  }
  if (r.remaining() < *length) return Status::ParseError("truncated frame");
  if (r.remaining() > *length) {
    return Status::ParseError("trailing bytes after frame");
  }
  auto view = DecodeFrameBody(bytes.data() + kLengthBytes, *length);
  if (!view.ok()) return view.status();
  return view->ToMessage();
}

Status FrameAssembler::FeedViews(const uint8_t* data, size_t size,
                                 const FrameSink& sink) {
  size_t pos = 0;
  // Finish the partial frame carried over from earlier reads, if any. The
  // carried prefix grows until the whole frame is present, then decodes in
  // place (the view aliases buffer_, stable until the clear after the sink).
  if (!buffer_.empty()) {
    while (buffer_.size() < kLengthBytes && pos < size) {
      buffer_.push_back(data[pos++]);
    }
    if (buffer_.size() < kLengthBytes) return Status::OK();
    uint32_t length = ReadLengthField(buffer_.data());
    if (length > kMaxFrameBytes) {
      return Status::ParseError("frame length " + std::to_string(length) +
                                " exceeds limit; stream desynchronized");
    }
    size_t total = kLengthBytes + length;
    size_t take = std::min(total - buffer_.size(), size - pos);
    buffer_.insert(buffer_.end(), data + pos, data + pos + take);
    pos += take;
    if (buffer_.size() < total) return Status::OK();
    auto view = DecodeFrameBody(buffer_.data() + kLengthBytes, length);
    if (!view.ok()) return view.status();
    Status delivered = DeliverFrame(*view, sink);
    if (!delivered.ok()) return delivered;
    buffer_.clear();
  }
  // Zero-copy scan: complete frames decode straight out of `data`.
  while (size - pos >= kLengthBytes) {
    uint32_t length = ReadLengthField(data + pos);
    if (length > kMaxFrameBytes) {
      return Status::ParseError("frame length " + std::to_string(length) +
                                " exceeds limit; stream desynchronized");
    }
    if (size - pos - kLengthBytes < length) break;  // Partial frame.
    auto view = DecodeFrameBody(data + pos + kLengthBytes, length);
    if (!view.ok()) return view.status();
    Status delivered = DeliverFrame(*view, sink);
    if (!delivered.ok()) return delivered;
    pos += kLengthBytes + length;
  }
  buffer_.assign(data + pos, data + size);
  return Status::OK();
}

Status FrameAssembler::DeliverFrame(const FrameView& view,
                                    const FrameSink& sink) {
  ++frames_decoded_;  // Credit unit: one wire frame, batch or not.
  if (view.type == MessageType::kBatch) return UnpackBatch(view, sink);
  sink(view);
  return Status::OK();
}

Status FrameAssembler::Feed(const uint8_t* data, size_t size,
                            std::vector<Message>* out) {
  return FeedViews(data, size, [out](const FrameView& view) {
    out->push_back(view.ToMessage());
  });
}

}  // namespace p2pdb::net
