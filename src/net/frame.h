// Message frame codec: the on-wire form of net::Message, shared by the TCP
// runtime (socket streams) and the statistics module (true byte volumes).
//
// Frame layout (little-endian, serde primitives):
//   u32 length   bytes after this field (crc + header + payload)
//   u32 crc      CRC-32 of everything after the crc field
//   header       u8 type, then varints from, to, seq, trace id (0 =
//                untraced), parent span and hop: one field list
//                (HeaderFields in frame.cc, util/serde.h) that both frame
//                encoders, both frame decoders and Message::WireSize run
//   payload      pre-serialized typed payload (core/wire.h)
//
// Like WAL records, a frame is either decoded whole or rejected: a CRC
// mismatch or truncated header fails DecodeFrame (and makes FrameAssembler
// report a poisoned stream, so a socket reader can drop the connection).
#ifndef P2PDB_NET_FRAME_H_
#define P2PDB_NET_FRAME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/message.h"
#include "src/util/status.h"

namespace p2pdb::net {

/// Hard upper bound on one frame's `length` field. Anything larger is treated
/// as stream corruption (a desynchronized or hostile sender), not a message.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Serializes `msg` into one self-delimiting frame.
std::vector<uint8_t> EncodeFrame(const Message& msg);

/// Coalesces `msgs` (all to the same destination) into one kBatch frame: a
/// single length prefix and CRC cover every message, so N small sends cost
/// one frame header and one checksum instead of N. Batch payload layout:
///   varint count
///   count x { header (as above), varint payload_len, payload }
/// Each entry keeps its own TraceContext, so causal traces stitch exactly as
/// if the messages had traveled alone. Batches do not nest (an inner kBatch
/// poisons the stream). Requires msgs non-empty.
std::vector<uint8_t> EncodeBatchFrame(const std::vector<Message>& msgs);

/// Transport-internal delivery ack: a kCredit frame telling the sender that
/// `frames_consumed` frames (cumulative, counting batches as one) have been
/// consumed off this connection. Credits are never credited back themselves,
/// so the exchange cannot regress.
std::vector<uint8_t> EncodeCreditFrame(NodeId from, uint64_t frames_consumed);

/// Decodes exactly one frame. Fails on truncation, trailing bytes, a CRC
/// mismatch, an unknown message type, or an oversized length.
Result<Message> DecodeFrame(const std::vector<uint8_t>& bytes);

/// One CRC-verified frame whose payload still lives in the decode buffer —
/// the zero-copy handoff between a socket read and message dispatch. The
/// payload pointer is valid only as long as the underlying buffer (for
/// FrameAssembler::FeedViews, only during the sink call).
struct FrameView {
  MessageType type = MessageType::kDiscoverRequest;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  uint64_t seq = 0;
  TraceContext trace;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;

  /// Owning message (payload copied out of the buffer).
  Message ToMessage() const;
  /// Message whose payload borrows the buffer; the receiver must call
  /// payload.EnsureOwned() before the buffer is reused (net::Payload docs).
  Message BorrowMessage() const;
};

/// The cumulative consumed-frame count carried by a kCredit frame.
Result<uint64_t> DecodeCreditPayload(const FrameView& view);

/// Incremental frame reassembly over an arbitrary byte stream (socket reads
/// deliver fragments and coalesced frames alike). Frames that arrive whole in
/// one Feed are decoded in place — only a trailing partial frame is buffered
/// until the rest of the stream arrives. A framing error (oversized length,
/// CRC mismatch, undecodable header) poisons the stream — the caller should
/// close the connection, as there is no way to resynchronize; like a single
/// DecodeFrame, a corrupt frame is rejected whole (its sink is never called).
class FrameAssembler {
 public:
  using FrameSink = std::function<void(const FrameView&)>;

  /// Zero-copy feed: invokes `sink` once per completed message. A kBatch
  /// frame is unpacked in place — the sink fires once per inner message, each
  /// with its own header and TraceContext (never for the kBatch wrapper
  /// itself); a malformed or nested inner entry poisons the stream like any
  /// other framing error. The FrameView's payload points into `data` (or into
  /// the internal partial-frame buffer) and is invalidated when the sink
  /// returns.
  Status FeedViews(const uint8_t* data, size_t size, const FrameSink& sink);

  /// Owning feed: appends every completed message (payload copied) to `out`.
  Status Feed(const uint8_t* data, size_t size, std::vector<Message>* out);

  /// Bytes of an incomplete frame still waiting for the rest of the stream.
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Cumulative count of completed wire frames (a batch counts once, however
  /// many messages it carries) — the unit of the credit-ack protocol: a
  /// receiver credits this number back so the sender can retire its
  /// per-frame send ledger (see TcpRuntime).
  uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  Status DeliverFrame(const FrameView& view, const FrameSink& sink);

  std::vector<uint8_t> buffer_;
  uint64_t frames_decoded_ = 0;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_FRAME_H_
