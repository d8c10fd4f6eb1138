// MailboxRuntime: the connection-independent half of the concurrent runtimes.
// Owns everything ThreadRuntime and TcpRuntime share — one mailbox per peer
// with a worker thread that serializes OnMessage dispatch, a timer thread for
// ScheduleSend, dropped-message accounting, and the exact in-flight count
// Run() waits on. Subclasses decide only how a sent message reaches the
// destination mailbox: ThreadRuntime enqueues directly, TcpRuntime pushes the
// frame through a socket whose reader calls Deliver().
#ifndef P2PDB_NET_MAILBOX_RUNTIME_H_
#define P2PDB_NET_MAILBOX_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/runtime.h"

namespace p2pdb::net {

class MailboxRuntime : public Runtime {
 public:
  struct Options {
    /// Run() fails if quiescence is not reached within this bound.
    std::chrono::milliseconds timeout{30'000};
  };

  ~MailboxRuntime() override;

  /// Callable at any time: registering while running spawns the peer's worker
  /// thread on the spot, and re-registering an id rebinds its handler (a
  /// restarted peer process).
  void RegisterPeer(NodeId id, PeerHandler* handler) override;

  /// Detaches the handler and drops its queued messages (counted). Blocks
  /// until any in-progress OnMessage on that peer returns, so the caller may
  /// destroy the handler immediately afterwards.
  void UnregisterPeer(NodeId id) override;

  /// Claims `id`'s mailbox the way a dispatch does (waits until no handler
  /// upcall is running, holds the busy flag across `fn`), so control-plane
  /// peer mutations serialize with message dispatch instead of racing it.
  /// Messages arriving meanwhile queue up behind `fn`.
  void RunExclusive(NodeId id, const std::function<void()>& fn) override;

  void ScheduleSend(uint64_t time_micros, Message msg) override;
  /// Blocks until the in-flight count reaches zero. The count is exact: a
  /// message is held from Send() until its handler and EndDispatch return,
  /// and a timer from ScheduleSend() until it is handed to Send(), so zero
  /// is quiescence and the last release wakes Run() directly.
  Status Run() override;
  /// Wall-clock churn hook: lets delivery threads run until `time_micros` of
  /// elapsed time, then returns (the network need not be quiescent).
  Status RunUntil(uint64_t time_micros) override;
  uint64_t NowMicros() const override;
  uint64_t dropped_count() const override { return dropped_.load(); }

 protected:
  explicit MailboxRuntime(Options options);

  /// Enqueues for local dispatch to msg.to's worker; counts a drop when the
  /// destination has no live handler. Thread-safe.
  void Deliver(Message msg);

  /// Transport fast path: dispatches on the calling (reactor worker) thread
  /// when the destination mailbox is idle — no thread handoff, and a borrowed
  /// payload is consumed without copying. Falls back to the worker queue when
  /// the mailbox is busy or has a backlog (taking ownership of the payload
  /// first), which preserves per-peer serialization and per-connection FIFO
  /// order. Thread-safe.
  void DispatchFromTransport(Message&& msg);

  uint64_t NextSeq() { return next_seq_.fetch_add(1); }
  void CountDrop(uint64_t n = 1) { dropped_.fetch_add(n); }

  /// Work visible to quiescence detection beyond queued messages — e.g. a
  /// TCP reader holding a partially reassembled frame. Every Hold must be
  /// paired with a Release. ReleaseWork is the only way the in-flight count
  /// goes down; the release that reaches zero wakes Run().
  void HoldWork() { in_flight_.fetch_add(1); }
  void ReleaseWork(uint64_t units = 1);

  /// Starts worker/timer threads (and the subclass's I/O) if not yet running.
  void EnsureStarted();

  /// Stops and joins all threads, the subclass's I/O first. Idempotent;
  /// subclass destructors MUST call this before their members are destroyed.
  void Shutdown();

  /// Subclass I/O lifecycle, called with no internal locks held.
  virtual void StartIo() {}
  virtual void StopIo() {}

  /// Bracket around one handler dispatch (OnMessage from PeerLoop or the
  /// inline transport path, or a RunExclusive fn): the transport may buffer
  /// sends made inside the bracket and flush them as coalesced frames at
  /// EndDispatch. Called on the dispatching thread with no mailbox lock held;
  /// EndDispatch runs before the mailbox's busy flag clears, so flushed
  /// frames keep per-(peer, destination) FIFO order. Defaults: no-op.
  virtual void BeginDispatch() {}
  virtual void EndDispatch() {}

  /// One line per unit of outstanding work: per-peer queue depths and busy
  /// handlers, pending timers, and (via subclass overrides) transport-level
  /// residency like unsent socket bytes. Logged when Run() gives up on the
  /// deadline or RunUntil() hands back a non-quiescent network, so a hung
  /// fixpoint names its culprit instead of timing out silently.
  virtual std::string PendingWorkReport() const;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Message> queue;
    PeerHandler* handler = nullptr;
    bool busy = false;  // Some thread is inside handler->OnMessage.
  };

  void PeerLoop(Mailbox* box);
  void TimerLoop();

  Options options_;
  mutable std::mutex mutex_;  // Guards mailboxes_ and threads_.
  std::map<NodeId, std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::thread> threads_;
  std::thread timer_thread_;

  // Timer queue for ScheduleSend (delayed injections).
  mutable std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::vector<std::pair<uint64_t, Message>> timer_queue_;

  std::atomic<uint64_t> in_flight_{0};  // queued + being processed + timed
  // Run() waits on idle_cv_ for in_flight_ == 0. A leaf lock: nothing else
  // is taken while it is held.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_MAILBOX_RUNTIME_H_
