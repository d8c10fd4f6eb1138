// Epoll reactor: the nonblocking socket engine under TcpRuntime. A small
// fixed pool of worker threads (default: hardware concurrency) each runs an
// epoll loop over the listeners and connections assigned to it — accept,
// read, and write are all nonblocking, so one worker drives hundreds of
// connections instead of one thread per connection.
//
// Ownership model: every Connection belongs to exactly one worker, and all
// I/O plus the Handler upcalls (OnRead/OnWritten/OnClose) for it happen on
// that worker's thread — per-connection state needs no locks. Cross-thread
// operations go through two narrow channels: Enqueue() pushes onto the
// connection's mutex-guarded send queue (the worker drains it with writev,
// batching small frames into one syscall), and control operations (close,
// register) are posted to the owning worker's task queue and executed there,
// which also makes fd lifetimes race-free (only the owner ever closes an fd).
//
// Backpressure: the send queue is bounded in bytes. A non-worker sender
// blocks while the queue is over the limit (a slow receiver slows only its
// senders, never the event loops); a reactor worker never blocks — its queue
// may transiently exceed the limit — so event loops cannot deadlock on each
// other's queues.
#ifndef P2PDB_NET_REACTOR_H_
#define P2PDB_NET_REACTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/stats.h"
#include "src/util/status.h"

namespace p2pdb::net {

class Reactor;

/// One nonblocking TCP connection owned by a single reactor worker.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  /// Owner-assigned routing key. TcpRuntime uses the NodeId whose listener
  /// accepted the connection (inbound) or the destination node (outbound).
  uint64_t token() const { return token_; }
  bool inbound() const { return inbound_; }

  /// Queues one encoded frame for writing. Thread-safe. Returns false when
  /// the connection is (or becomes) closed before accepting the frame — the
  /// frame is left in place so the caller can retry on a fresh connection,
  /// and the caller owns the drop accounting. Frames accepted here are
  /// reported exactly once, via Handler::OnWritten (reached the kernel) or
  /// Handler::OnClose (dropped).
  bool Enqueue(std::vector<uint8_t>&& frame);

  /// Asynchronously closes the connection; callable from any thread. Queued
  /// frames are reported dropped via Handler::OnClose.
  void RequestClose();

  bool closed() const { return closed_.load(); }
  size_t queued_bytes() const;

 private:
  friend class Reactor;

  enum class State { kConnecting, kOpen, kClosed };

  Reactor* reactor_ = nullptr;
  int fd_ = -1;
  int worker_ = 0;
  uint64_t token_ = 0;
  bool inbound_ = false;

  // Guarded by mutex_ (state transitions and the send queue).
  mutable std::mutex mutex_;
  std::condition_variable drained_;  // Signals backpressure waiters.
  State state_ = State::kConnecting;
  std::deque<std::vector<uint8_t>> sendq_;
  size_t sendq_bytes_ = 0;
  bool flush_armed_ = false;  // The worker knows the queue is non-empty.

  std::atomic<bool> closed_{false};

  // Owning worker only.
  size_t front_offset_ = 0;  // Bytes of sendq_.front() already written.
  bool want_write_ = false;  // EPOLLOUT currently armed.
  std::chrono::steady_clock::time_point connect_deadline_{};
};

class Reactor {
 public:
  struct Options {
    /// Worker (event-loop) threads; 0 means std::thread::hardware_concurrency.
    int workers = 0;
    /// Per-connection send-queue backpressure threshold, in bytes.
    size_t send_queue_limit = 4u << 20;
    /// Bound on one nonblocking connect attempt (a blackholed endpoint must
    /// fail fast instead of parking queued frames forever).
    std::chrono::milliseconds connect_timeout{1'000};
    /// SO_SNDBUF for outbound sockets; 0 keeps the kernel default. Tests
    /// shrink it to force partial writev results deterministically.
    int send_buffer_bytes = 0;
    /// Syscall-counter sink; may be nullptr.
    IoCounters* counters = nullptr;
  };

  /// Upcalls, invoked on reactor worker threads. Calls for one connection
  /// are serialized (single owning worker); calls for different connections
  /// run concurrently. Handlers must not block on other connections' queues
  /// (Enqueue already guarantees workers never do).
  class Handler {
   public:
    virtual ~Handler() = default;
    /// Bytes arrived; return false to close (poisoned stream).
    virtual bool OnRead(Connection* conn, const uint8_t* data,
                        size_t size) = 0;
    /// `frames` queued frames were fully written to the kernel.
    virtual void OnWritten(Connection* conn, size_t frames) {
      (void)conn;
      (void)frames;
    }
    /// Terminal event: the fd is closed and no further upcalls follow.
    /// `dropped_frames` were accepted by Enqueue but never fully written.
    /// The Connection may be freed once the owner drops its references.
    virtual void OnClose(Connection* conn, size_t dropped_frames) = 0;
  };

  Reactor(Options options, Handler* handler);
  ~Reactor();

  /// Opens a nonblocking listener on host:port (port 0 = kernel-assigned)
  /// and registers it under `token`; accepted connections inherit the token
  /// and are owned by the listener's worker. Returns the bound port. A fixed
  /// port lets a config file own the address: a re-exec'd daemon rebinds the
  /// same endpoint, so remote tables stay valid across the restart.
  Result<uint16_t> Listen(const std::string& host, uint64_t token,
                          uint16_t port = 0);

  /// Closes the listener registered under `token` (if any) and every live
  /// connection carrying that token — inbound and outbound alike. Blocks
  /// until the owning workers have torn everything down, so a subsequent
  /// connect to the old port is refused by the kernel. Control-plane only:
  /// must not be called from a Handler upcall (reactor worker).
  void CloseToken(uint64_t token);

  /// Starts a nonblocking connect; frames may be enqueued immediately and
  /// are written once the connect completes (or dropped if it fails or times
  /// out). The returned connection is live until Handler::OnClose.
  std::shared_ptr<Connection> Connect(const std::string& host, uint16_t port,
                                      uint64_t token);

  /// Stops the workers and closes every listener and connection (OnClose
  /// fires for each, on the calling thread). Idempotent. After Stop, Listen
  /// and Connect fail/return closed connections.
  void Stop();

 private:
  struct Listener {
    int fd = -1;
    uint64_t token = 0;
    uint16_t port = 0;
    int worker = 0;
  };

  struct Worker {
    int index = 0;
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;

    std::mutex task_mutex;
    std::vector<std::function<void()>> tasks;

    // Worker-thread-local state (no locks).
    std::map<int, std::shared_ptr<Connection>> conns;          // by fd
    std::map<int, std::shared_ptr<Listener>> listeners;        // by fd
    std::vector<std::shared_ptr<Connection>> connecting;
    std::vector<std::shared_ptr<Connection>> dirty;  // Same-thread enqueues.
    std::vector<uint8_t> read_buffer;
  };

  friend class Connection;

  void WorkerLoop(Worker* w);
  void RunTasks(Worker* w);
  int NextTimeoutMillis(Worker* w);
  void CheckConnectDeadlines(Worker* w);
  void AcceptReady(Worker* w, const std::shared_ptr<Listener>& listener);
  void HandleConnEvent(Worker* w, std::shared_ptr<Connection> c,
                       uint32_t events);
  void ReadReady(Worker* w, const std::shared_ptr<Connection>& c);
  void FlushConn(Worker* w, const std::shared_ptr<Connection>& c);
  void CloseConn(Worker* w, std::shared_ptr<Connection> c);
  void UpdateWriteInterest(Worker* w, Connection* c, bool want);

  /// Registers a freshly created connection with its owning worker's epoll.
  void AdoptConn(Worker* w, const std::shared_ptr<Connection>& c);

  /// Posts `fn` to the worker's task queue and wakes it. Returns false when
  /// the reactor is stopped (the caller must handle the work itself).
  bool Post(Worker* w, std::function<void()> fn);
  void Wake(Worker* w);

  /// Called by Connection::Enqueue after pushing: makes sure the owning
  /// worker will flush (dirty list when called on that worker, eventfd wake
  /// otherwise).
  void NoteQueued(Connection* c);

  int PickWorker();

  Options options_;
  Handler* handler_;
  std::atomic<bool> stop_{false};
  std::atomic<uint32_t> next_worker_{0};
  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex registry_mutex_;  // listeners_by_token_, conns_by_token_.
  std::map<uint64_t, std::shared_ptr<Listener>> listeners_by_token_;
  std::map<uint64_t, std::vector<std::weak_ptr<Connection>>> conns_by_token_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_REACTOR_H_
