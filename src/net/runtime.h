// Runtime: the asynchronous message-passing substrate peers run on.
// Two implementations share this interface: SimRuntime (deterministic
// discrete-event simulation — used by tests and benches so time and message
// interleavings are reproducible) and TcpRuntime (every message crosses a
// real TCP socket; peers are network endpoints, as the paper's JXTA peers
// talk over pipes).
#ifndef P2PDB_NET_RUNTIME_H_
#define P2PDB_NET_RUNTIME_H_

#include <functional>

#include "src/net/message.h"
#include "src/net/stats.h"
#include "src/util/status.h"

namespace p2pdb::net {

/// Callback interface a peer implements to receive messages. The runtime
/// guarantees that for a given peer, OnMessage invocations never overlap.
class PeerHandler {
 public:
  virtual ~PeerHandler() = default;
  virtual void OnMessage(const Message& msg) = 0;
};

/// Abstract asynchronous runtime.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Registers the handler for node `id`. Must happen before Run().
  /// Re-registering an id replaces the previous handler (a restarted peer).
  virtual void RegisterPeer(NodeId id, PeerHandler* handler) = 0;

  /// Removes the handler for `id`: subsequent deliveries to it are dropped,
  /// modelling a crashed peer process. Default: no-op (runtimes without crash
  /// support keep delivering to the registered handler).
  virtual void UnregisterPeer(NodeId id) { (void)id; }

  /// Whether the runtime can actually deliver to locally-registered peer
  /// `id` — e.g. the socket runtime's listener bound successfully. Churn
  /// drivers check this after (re)registering a peer, since RegisterPeer
  /// itself cannot fail. Default: registered peers are always reachable.
  virtual Status PeerReady(NodeId id) const {
    (void)id;
    return Status::OK();
  }

  /// Queues a message for asynchronous delivery. Callable from handlers.
  virtual void Send(Message msg) = 0;

  /// Delivers messages until the network is quiescent (no message in flight
  /// and no handler running). Returns an error on runaway executions.
  virtual Status Run() = 0;

  /// Delivers messages up to (and including) `time_micros`, leaving later
  /// ones queued — the hook a session's run loop uses to fire a scripted
  /// event (a rule change, a crash, a restart) mid-run. Default: runs to
  /// quiescence (runtimes without a controllable clock cannot stop
  /// mid-flight).
  virtual Status RunUntil(uint64_t time_micros) {
    (void)time_micros;
    return Run();
  }

  /// Runs `fn` inside `id`'s per-peer serialization domain: mutually
  /// exclusive with any OnMessage dispatch to `id`, so control-plane
  /// mutations of peer state (starting discovery or an update) cannot race
  /// handler upcalls arriving from the network. May block until the peer's
  /// current dispatch finishes; never call it from inside a handler.
  /// Messages that reach `id` while `fn` runs wait for it, and the caller's
  /// thread runs them, in arrival order, before this returns.
  /// Default: single-threaded runtimes have nothing to exclude.
  virtual void RunExclusive(NodeId id, const std::function<void()>& fn) {
    (void)id;
    fn();
  }

  /// Current time in microseconds: simulated (SimRuntime) or wall-clock
  /// elapsed since construction (TcpRuntime).
  virtual uint64_t NowMicros() const = 0;

  /// Messages lost because their destination was gone: unregistered in the
  /// simulator, or — for the socket runtime — refused/reset by the kernel.
  virtual uint64_t dropped_count() const { return 0; }

  NetStats& stats() { return stats_; }

 protected:
  NetStats stats_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_RUNTIME_H_
