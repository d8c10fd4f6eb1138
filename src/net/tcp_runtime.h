// TcpRuntime: peers as real network endpoints. Every registered peer owns a
// listening TCP socket (loopback by default, kernel-assigned port), every
// Send() serializes the message through the frame codec (net/frame.h) and
// queues it on a per-destination connection, and a small epoll reactor pool
// (net/reactor.h) drives all sockets — nonblocking accept/read/write, writev
// batching of queued frames, zero-copy frame reassembly straight out of the
// reactor's read buffer into MailboxRuntime's dispatch. The endpoint table
// (NodeId -> host:port) routes sends; entries for local peers are filled in
// automatically, remote entries let a network span several runtimes (or,
// eventually, processes).
//
// Churn is a connection event, as in the dynamic-P2P literature: crashing a
// peer (UnregisterPeer) closes its listener and sockets, so messages to it
// die in the kernel — refused connections and reset writes are what the
// dropped counter counts, not a simulation flag. A restarted peer re-listens
// on a fresh port; senders recover via reconnect-on-send.
#ifndef P2PDB_NET_TCP_RUNTIME_H_
#define P2PDB_NET_TCP_RUNTIME_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/net/mailbox_runtime.h"
#include "src/net/reactor.h"

namespace p2pdb::net {

class TcpRuntime : public MailboxRuntime, private Reactor::Handler {
 public:
  /// One row of the endpoint table.
  struct Endpoint {
    std::string host;
    uint16_t port = 0;

    std::string ToString() const;
    /// Parses "host:port" (the on-disk/CLI endpoint table format).
    static Result<Endpoint> Parse(const std::string& text);
  };

  struct Options {
    /// Run() fails if quiescence is not reached within this bound. Run()
    /// itself is exact: every message is held in-flight from Send() until
    /// the receiving runtime credits its frame back as consumed (kCredit
    /// acks), so it returns the moment the global in-flight count hits zero.
    std::chrono::milliseconds timeout{30'000};
    /// Address listeners bind to (and the host recorded for local peers).
    std::string host = "127.0.0.1";
    /// Fixed listening port; 0 (the default) lets the kernel pick. A daemon
    /// whose config file owns its endpoint binds the configured port so the
    /// rest of the fleet's endpoint tables survive its re-exec. Only
    /// meaningful for single-peer runtimes (p2pdb_peerd): with several local
    /// peers, all but the first listener would collide.
    uint16_t listen_port = 0;
    /// Reactor worker (event-loop) threads; 0 = hardware concurrency.
    int io_workers = 0;
    /// Per-connection send-queue bound; senders to a slow receiver block
    /// once its queue holds this many bytes.
    size_t send_queue_limit = 4u << 20;
    /// Bound on one nonblocking connect attempt.
    std::chrono::milliseconds connect_timeout{1'000};
    /// Coalescing cap: messages a handler sends to one destination during a
    /// single dispatch are packed into one kBatch frame (one length prefix,
    /// one CRC, one writev entry), flushed at dispatch end or as soon as the
    /// pending batch's payload bytes reach this cap. 0 disables coalescing
    /// (every message travels in its own frame, the pre-batching behavior).
    size_t batch_max_bytes = 56u << 10;
  };

  TcpRuntime() : TcpRuntime(Options{}) {}
  explicit TcpRuntime(Options options);
  ~TcpRuntime() override;

  /// Registers the handler and opens the peer's listening socket; the
  /// endpoint table gains (or updates, for a restarted peer) its row.
  void RegisterPeer(NodeId id, PeerHandler* handler) override;

  /// Crash as connection teardown: closes the peer's listener and every
  /// socket touching it, then detaches the handler. In-flight frames die in
  /// the kernel; later sends fail to connect and are counted dropped.
  void UnregisterPeer(NodeId id) override;

  /// Fails when `id` has no live listener (RegisterPeer could not bind, or
  /// the peer was unregistered) — such a peer silently drops every message.
  Status PeerReady(NodeId id) const override;

  /// Frames the message and queues it on the destination's connection,
  /// opening or reviving the connection as needed (one reconnect attempt — a
  /// restarted peer listens on a new port). The reactor writes it out
  /// asynchronously; failures are dropped messages, counted when the kernel
  /// refuses them.
  void Send(Message msg) override;

  // --- Endpoint table ---

  /// Routes sends for a peer hosted by another runtime/process. Re-adding
  /// the exact endpoint already on file is an idempotent no-op (a re-applied
  /// bootstrap table), but a DIFFERENT endpoint for a known node is rejected
  /// with kAlreadyExists and the table is left unchanged — a silent remap
  /// would quietly redirect a live node's traffic on a typo'd config.
  Status AddRemoteEndpoint(NodeId id, Endpoint endpoint);

  /// The endpoint a send to `id` would use; port 0 when unknown.
  Endpoint EndpointOf(NodeId id) const;

  /// The local listening port of `id` (0 when not a listening local peer).
  uint16_t ListenPort(NodeId id) const;

  /// Printable table, one "node host:port" row per known endpoint.
  std::string EndpointTable() const;

 protected:
  void StopIo() override;

  /// Coalescing bracket (see MailboxRuntime): sends made between Begin and
  /// End are buffered per destination and flushed as kBatch frames at End.
  void BeginDispatch() override;
  void EndDispatch() override;

  /// Adds transport residency to the mailbox report: unsent bytes sitting in
  /// per-destination send queues and frames awaiting the receiver's credit.
  std::string PendingWorkReport() const override;

 private:
  /// Per-connection transport state, owned by conn_states_ (shared_ptr so a
  /// sender thread can finish its bookkeeping while OnClose retires the
  /// entry concurrently).
  ///
  /// Read half (touched only by the connection's owning reactor worker):
  /// frame reassembly plus the receiver side of the credit protocol — the
  /// cumulative count of frames consumed off this connection, credited back
  /// to the peer runtime as kCredit frames. While the assembler holds a
  /// partial frame, `holding` pins one in-flight unit (the sender's hold has
  /// moved on once the frame was consumed; a half-read frame is still work).
  ///
  /// Send half (mutex-guarded, any thread): the sender side — one ledger
  /// entry per tracked frame accepted by Enqueue, recording how many
  /// messages it carries. Entries retire in FIFO order as the receiver's
  /// cumulative credit covers them (releasing their quiescence holds) or at
  /// OnClose (released; counted dropped when the kernel never took them).
  struct ConnState {
    // Owning reactor worker only.
    FrameAssembler assembler;
    bool holding = false;
    uint64_t credited_out = 0;  // Frames already acked back to the sender.

    // Sender half.
    std::mutex mutex;
    bool send_closed = false;      // OnClose ran; the ledger is drained.
    uint64_t frames_enqueued = 0;  // Cumulative tracked frames accepted.
    uint64_t frames_acked = 0;     // Cumulative frames retired by credit.
    uint64_t credit_target = 0;    // Highest cumulative credit received.
    std::deque<uint32_t> ledger;   // Messages per outstanding frame.
    std::atomic<uint64_t> written_frames{0};  // Cumulative OnWritten count.
  };

  /// One thread's in-progress coalescing bracket: messages buffered per
  /// destination until EndDispatch (or the batch cap) flushes them.
  struct PendingBatch {
    std::vector<Message> messages;
    size_t payload_bytes = 0;
  };
  struct BatchScope {
    TcpRuntime* owner = nullptr;
    int depth = 0;
    std::map<NodeId, PendingBatch> dests;
  };
  static BatchScope& ThisThreadBatchScope();

  // Reactor::Handler (reactor worker threads).
  bool OnRead(Connection* conn, const uint8_t* data, size_t size) override;
  void OnWritten(Connection* conn, size_t frames) override;
  void OnClose(Connection* conn, size_t dropped_frames) override;

  /// Opens a listening socket for `id` and records its endpoint; keeps the
  /// first listener when `id` is already listening.
  Status OpenListener(NodeId id);

  /// The cached outbound connection to `to`, reconnected if dead; nullptr
  /// when the endpoint table has no row.
  std::shared_ptr<Connection> OutboundFor(NodeId to);

  /// The connection's ConnState, created on first use. For an already-closed
  /// connection whose state was retired, returns an ephemeral send_closed
  /// state so callers self-account instead of writing to a dead ledger.
  std::shared_ptr<ConnState> StateFor(Connection* conn);

  /// Ships one encoded frame carrying `messages` in-flight holds to `to`
  /// (reconnecting once), appends it to the connection's credit ledger, and
  /// on failure releases the holds as drops.
  void TransmitFrame(NodeId to, std::vector<uint8_t> frame, uint32_t messages);

  /// Sends `batch` (coalesced if >1 message) and resets it.
  void FlushDest(NodeId to, PendingBatch& batch);

  /// Receiver credit arrived on outbound connection `conn`: retire ledger
  /// entries up to the new cumulative target.
  void HandleCredit(Connection* conn, uint64_t credit);

  /// Retires credited ledger entries, releasing their holds. Caller holds
  /// st.mutex.
  void DrainAckedLocked(ConnState& st);

  Options options_;
  std::unique_ptr<Reactor> reactor_;
  mutable std::mutex net_mutex_;  // endpoints_, listen_ports_, outbound_.
  std::map<NodeId, Endpoint> endpoints_;
  std::map<NodeId, uint16_t> listen_ports_;
  std::map<NodeId, std::shared_ptr<Connection>> outbound_;
  mutable std::mutex states_mutex_;  // conn_states_.
  std::map<const Connection*, std::shared_ptr<ConnState>> conn_states_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_TCP_RUNTIME_H_
