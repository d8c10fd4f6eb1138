// Message envelope exchanged between peers. Payloads are pre-serialized bytes
// (see core/wire.h for the typed payload structs) so that the statistics
// module can report true on-wire volumes, as the paper's prototype did.
#ifndef P2PDB_NET_MESSAGE_H_
#define P2PDB_NET_MESSAGE_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/util/ids.h"
#include "src/util/serde.h"

namespace p2pdb::net {

enum class MessageType : uint8_t {
  // Topology discovery (algorithms A1-A3).
  kDiscoverRequest = 1,
  kDiscoverAnswer = 2,
  kDiscoverClosure = 3,
  // Database update (algorithms A4-A6).
  kUpdateStart = 10,
  kQueryRequest = 11,
  kQueryAnswer = 12,
  kUnsubscribe = 13,
  kPartialUpdate = 14,
  // Fix-point detection within strongly connected components.
  kToken = 20,
  kSccClosed = 21,
  kReopen = 22,
  // Dynamic network change notifications (Section 4).
  kAddRule = 30,
  kDeleteRule = 31,
  // Transport-internal frames, never dispatched to a peer handler. kBatch
  // packs N same-destination messages into one single-CRC frame (coalescing,
  // net/frame.h); kCredit carries the receiver's cumulative consumed-frame
  // count back to the sender, making TcpRuntime quiescence exact.
  kBatch = 40,
  kCredit = 41,
  // Wire control plane (src/core/control.h): how a fleet controller drives
  // remote peer processes the way an in-process Session drives local ones —
  // session bootstrap handshake, phase starts, statistics polling, database
  // dumps for convergence checks, and graceful shutdown. Handled by the
  // daemon layer (src/daemon) wrapping a peer, never by the Peer itself.
  kBootstrap = 50,
  kBootstrapAck = 51,
  kStartDiscovery = 52,
  kStartUpdate = 53,
  kRefreshScc = 54,
  kStatusRequest = 55,
  kStatusReport = 56,
  kDumpRequest = 57,
  kDumpReply = 58,
  kShutdown = 59,
};

// Each type's facts live in one table (message.cc); these read it.

/// The type's name, as logs, statistics and trace spans print it; "Unknown"
/// for a value that is no MessageType.
const char* MessageTypeName(MessageType type);

/// True when `raw` is the encoding of a MessageType (frame decoding rejects
/// anything else before it reaches a peer).
bool IsKnownMessageType(uint8_t raw);

/// True for the latency-critical types: the fix-point detector's (kToken,
/// kSccClosed, kReopen) and the wire control plane's (kBootstrap through
/// kShutdown). A coalescing transport never holds one in a batch: it flushes
/// whatever is pending for the destination (keeping per-destination FIFO
/// order) and sends the message in its own frame, so termination detection
/// and control replies never wait on a data-plane batch cap.
bool IsUrgent(MessageType type);

/// True for the idempotent data-plane types, which SimRuntime's
/// duplicate_prob may deliver twice: discovery, UpdateStart, QueryRequest,
/// QueryAnswer, Unsubscribe and PartialUpdate. The fix-point detector's
/// types, rule changes and the control plane stay exactly-once.
bool IsDuplicable(MessageType type);

/// Message payload bytes: owned by default, borrowed on the zero-copy receive
/// path. A borrowed payload points into a transport read buffer and is valid
/// only until the dispatch that delivered it returns; the transport calls
/// EnsureOwned() before parking a message in a queue. Copying a borrowed
/// payload materializes an owned copy, so handlers that retain a message (or
/// echo its payload into a reply) behave exactly as with an owned buffer.
class Payload {
 public:
  Payload() = default;
  Payload(std::vector<uint8_t> bytes) : owned_(std::move(bytes)) {}
  Payload(std::initializer_list<uint8_t> bytes) : owned_(bytes) {}

  /// A view into memory the caller keeps alive for the payload's lifetime.
  static Payload Borrow(const uint8_t* data, size_t size) {
    Payload p;
    p.view_ = data;
    p.view_size_ = size;
    return p;
  }

  Payload(const Payload& other)
      : owned_(other.view_ ? std::vector<uint8_t>(
                                 other.view_, other.view_ + other.view_size_)
                           : other.owned_) {}
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  Payload(Payload&&) = default;
  Payload& operator=(Payload&&) = default;

  Payload& operator=(std::vector<uint8_t> bytes) {
    owned_ = std::move(bytes);
    view_ = nullptr;
    view_size_ = 0;
    return *this;
  }
  Payload& operator=(std::initializer_list<uint8_t> bytes) {
    owned_.assign(bytes);
    view_ = nullptr;
    view_size_ = 0;
    return *this;
  }

  const uint8_t* data() const { return view_ ? view_ : owned_.data(); }
  size_t size() const { return view_ ? view_size_ : owned_.size(); }
  bool empty() const { return size() == 0; }
  bool borrowed() const { return view_ != nullptr; }

  /// Copies a borrowed view into owned storage; no-op when already owned.
  void EnsureOwned() {
    if (view_ == nullptr) return;
    owned_.assign(view_, view_ + view_size_);
    view_ = nullptr;
    view_size_ = 0;
  }

  void assign(size_t count, uint8_t value) {
    owned_.assign(count, value);
    view_ = nullptr;
    view_size_ = 0;
  }

  bool operator==(const Payload& other) const {
    return size() == other.size() &&
           std::equal(data(), data() + size(), other.data());
  }

  /// Decode-side view (wire::*::Decode and Reader accept this directly).
  operator ByteView() const { return ByteView(data(), size()); }

 private:
  std::vector<uint8_t> owned_;
  const uint8_t* view_ = nullptr;
  size_t view_size_ = 0;
};

/// Causal trace context carried by every message (and its frame encoding).
/// trace_id 0 means "not traced" — the zero-cost default. A traced message
/// names the propagation span that sent it (parent_span) and its causal
/// depth from the root (hop), so a collector can reassemble the propagation
/// DAG of one update across peers, runtimes, and — since it is on the wire —
/// eventually processes. See src/obs/trace.h.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  uint32_t hop = 0;

  bool active() const { return trace_id != 0; }
};

/// One message in flight.
struct Message {
  MessageType type = MessageType::kDiscoverRequest;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Payload payload;
  /// Sequence number assigned by the runtime at send time (debug/tracing).
  uint64_t seq = 0;
  /// Causal update tracing (on the wire, after seq).
  TraceContext trace;
  /// Local bookkeeping, never serialized: stamped with NowMicros() when the
  /// message queues behind a busy mailbox, rewritten to the measured queue
  /// wait just before the thread holding the mailbox runs it (see
  /// TcpRuntime). Zero when it runs on the thread that read it.
  uint64_t queued_micros = 0;

  /// Exact size of this message's frame encoding (see net/frame.h): what a
  /// socket carries and what the statistics module counts as bytes on a pipe.
  size_t WireSize() const;

  std::string ToString() const;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_MESSAGE_H_
