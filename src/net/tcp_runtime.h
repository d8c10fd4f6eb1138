// TcpRuntime: peers as real network endpoints. Every registered peer owns a
// listening TCP socket (loopback by default, kernel-assigned port), every
// Send() serializes the message through the frame codec (net/frame.h) and
// queues it on a per-destination connection, and a small epoll reactor pool
// (net/reactor.h) drives all sockets — nonblocking accept/read/write, writev
// batching of queued frames, zero-copy frame reassembly straight out of the
// reactor's read buffer into the destination peer's handler. The endpoint
// table (NodeId -> host:port) routes sends; entries for local peers are
// filled in automatically, remote entries let a network span several
// runtimes (or processes).
//
// Dispatch follows one rule: the thread that finds a peer's mailbox idle
// claims it, runs its message, then runs whatever queued behind it, and lets
// the mailbox go only once its queue is empty. Reactor workers claim
// mailboxes for the frames they read; RunExclusive claims one for its caller.
// So a peer's handler never runs on two threads at once, messages off one
// connection run in arrival order, and the runtime owns no thread per peer:
// its only threads are the reactor pool's workers.
//
// Churn is a connection event, as in the dynamic-P2P literature: crashing a
// peer (UnregisterPeer) closes its listener and sockets, so messages to it
// die in the kernel — refused connections and reset writes are what the
// dropped counter counts, not a simulation flag. A restarted peer re-listens
// on a fresh port; senders recover via reconnect-on-send.
#ifndef P2PDB_NET_TCP_RUNTIME_H_
#define P2PDB_NET_TCP_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/frame.h"
#include "src/net/reactor.h"
#include "src/net/runtime.h"

namespace p2pdb::net {

class TcpRuntime : public Runtime, private Reactor::Handler {
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
  /// Callable at any time, also while messages flow; re-registering an id
  /// rebinds its handler (a restarted peer process).
  void RegisterPeer(NodeId id, PeerHandler* handler) override;

  /// Crash as connection teardown: closes the peer's listener and every
  /// socket touching it, then detaches the handler and drops its queued
  /// messages (counted). In-flight frames die in the kernel; later sends fail
  /// to connect and are counted dropped. Blocks until no thread holds the
  /// peer's mailbox, so the caller may destroy the handler right afterwards.
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

  /// Claims `id`'s mailbox for the calling thread the way a dispatch does:
  /// waits until no thread holds it, runs `fn`, then runs every message that
  /// queued behind `fn` on this thread too, in arrival order, before letting
  /// the mailbox go.
  void RunExclusive(NodeId id, const std::function<void()>& fn) override;

  /// Blocks until the in-flight count reaches zero; fails after
  /// Options::timeout with a report naming the pending work. The count is
  /// exact: a message is held from Send() until the receiving runtime
  /// credits its frame back, the receiver holds it from before that credit
  /// until its handler and dispatch-end flush have run. So zero is
  /// quiescence, and the last release wakes Run() directly.
  Status Run() override;

  /// Wall-clock hook for scripted events: lets the reactor deliver until
  /// `time_micros` of elapsed time, then returns (the network need not be
  /// quiescent).
  Status RunUntil(uint64_t time_micros) override;

  /// Wall-clock microseconds since construction.
  uint64_t NowMicros() const override;
  uint64_t dropped_count() const override { return dropped_.load(); }

  // --- Endpoint table ---

  /// Routes sends for a peer hosted by another runtime/process. Re-adding
  /// the exact endpoint already on file is an idempotent no-op (a re-applied
  /// bootstrap table), but a DIFFERENT endpoint for a known node is rejected
  /// with kAlreadyExists and the table is left unchanged — a silent remap
  /// would quietly redirect a live node's traffic on a typo'd config.
  Status AddRemoteEndpoint(NodeId id, Endpoint endpoint);

  /// Points `id`'s row at `endpoint`, replacing any other, and closes the
  /// cached connection to the old one (frames still queued there are
  /// dropped, counted), so the next send connects afresh. For a node that
  /// moves by design, such as a fleet's controller when a new controller
  /// process takes over; system nodes' rows keep AddRemoteEndpoint's guard.
  void ReplaceEndpoint(NodeId id, Endpoint endpoint);

  /// The endpoint a send to `id` would use; port 0 when unknown.
  Endpoint EndpointOf(NodeId id) const;

  /// The local listening port of `id` (0 when not a listening local peer).
  uint16_t ListenPort(NodeId id) const;

  /// Printable table, one "node host:port" row per known endpoint.
  std::string EndpointTable() const;

 protected:
  /// Closes one dispatch's coalescing bracket (a handler upcall or a
  /// RunExclusive fn): the sends made since BeginDispatch go out as kBatch
  /// frames, one per destination. Runs on the dispatching thread before the
  /// next message in the mailbox starts, so flushed frames keep
  /// per-(peer, destination) FIFO order.
  virtual void EndDispatch();

  /// Stops the reactor and joins its workers. Idempotent. A subclass whose
  /// overrides those threads call must call it in its own destructor.
  void Shutdown();

 private:
  /// One peer's dispatch slot. `busy` marks a claim: the claiming thread is
  /// running a handler or `fn` and will run everything in `queue` before it
  /// clears the flag, so the queue is empty whenever the mailbox is idle.
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable idle;  // Notified when `busy` clears.
    std::deque<Message> queue;
    PeerHandler* handler = nullptr;
    bool busy = false;
  };

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

  /// Opens the calling thread's coalescing bracket (see EndDispatch).
  void BeginDispatch();

  Mailbox* FindMailbox(NodeId id) const;

  /// Runs a message read off a socket on the calling reactor worker when its
  /// mailbox is idle (a borrowed payload is consumed without a copy), then
  /// drains the mailbox. When another thread holds the mailbox, the message
  /// (its payload now owned) joins the queue that thread drains. Counts a
  /// drop when the destination has no live handler.
  void DispatchFromTransport(Message&& msg);

  /// Runs every message queued on the claimed `box`, then clears `busy`.
  /// `holding`: the caller's own message still holds its in-flight unit;
  /// each unit is released only once the next message is popped or the
  /// claim is gone, so Run() never returns while a mailbox is claimed.
  void DrainMailbox(Mailbox* box, bool holding);

  void HoldWork() { in_flight_.fetch_add(1); }
  /// The only way the in-flight count goes down; the release that reaches
  /// zero wakes Run().
  void ReleaseWork(uint64_t units = 1);
  void CountDrop(uint64_t n = 1) { dropped_.fetch_add(n); }

  /// One line per unit of outstanding work: mailbox queue depths and claims,
  /// unsent bytes in send queues and frames awaiting the receiver's credit.
  /// Logged when Run() gives up or RunUntil() hands back a network that is
  /// not quiescent, so a hung fixpoint names its culprit.
  std::string PendingWorkReport() const;

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
  const std::chrono::steady_clock::time_point start_time_;

  mutable std::mutex mailboxes_mutex_;  // The map; each Mailbox locks itself.
  std::map<NodeId, std::unique_ptr<Mailbox>> mailboxes_;

  // Queued + being dispatched + in frames awaiting credit. Run()
  // waits on idle_cv_ for zero; idle_mutex_ is a leaf lock.
  std::atomic<uint64_t> in_flight_{0};
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> dropped_{0};

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
