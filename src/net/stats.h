// Network statistics: the paper's per-node "statistical module" aggregated —
// number of messages per type, bytes per pipe, and counters the super-peer can
// reset or collect for an experiment run.
#ifndef P2PDB_NET_STATS_H_
#define P2PDB_NET_STATS_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "src/net/message.h"

namespace p2pdb::obs {
class Registry;
}  // namespace p2pdb::obs

namespace p2pdb::net {

struct PipeStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

/// Syscall-level transport counters, updated lock-free from reactor workers
/// and the dispatch path. writev_frames / writev_calls is the small-frame
/// batching factor; send_queue_hwm_bytes is the worst backpressure depth any
/// connection reached; inline vs queued dispatches show how often a frame
/// went straight from the socket read into the peer handler, and how often
/// it waited in the peer's mailbox for the thread already dispatching there.
struct IoCounters {
  std::atomic<uint64_t> epoll_wakeups{0};
  std::atomic<uint64_t> writev_calls{0};
  std::atomic<uint64_t> writev_frames{0};
  std::atomic<uint64_t> writev_bytes{0};
  std::atomic<uint64_t> accepts{0};
  std::atomic<uint64_t> connects{0};
  std::atomic<uint64_t> connect_failures{0};
  std::atomic<uint64_t> inline_dispatches{0};
  std::atomic<uint64_t> queued_dispatches{0};
  std::atomic<uint64_t> send_queue_hwm_bytes{0};
  // Coalescing + credit protocol (TcpRuntime). frames_enqueued counts app
  // frames handed to send queues (a batch counts once — so frames_enqueued
  // vs messages recorded is the coalescing factor); batched_messages /
  // batch_frames is the mean batch occupancy; credit_frames are the
  // transport-internal acks (excluded from frames_enqueued and NetStats).
  std::atomic<uint64_t> frames_enqueued{0};
  std::atomic<uint64_t> batch_frames{0};
  std::atomic<uint64_t> batched_messages{0};
  std::atomic<uint64_t> credit_frames{0};

  /// Raises send_queue_hwm_bytes to `bytes` if it is a new maximum.
  void RecordQueueDepth(uint64_t bytes);
  double FramesPerWritev() const;
  void Reset();
};

/// Thread-safe counters shared by all pipes of a runtime.
class NetStats {
 public:
  void RecordSend(const Message& msg);

  /// Drops all counters (the super-peer "reset statistics" command).
  void Reset();

  uint64_t total_messages() const;
  uint64_t total_bytes() const;
  uint64_t MessagesOfType(MessageType type) const;
  uint64_t BytesOfType(MessageType type) const;

  /// Per directed pipe (from, to).
  std::map<std::pair<NodeId, NodeId>, PipeStats> PerPipe() const;

  /// Tabular report of counters per message type.
  std::string Report() const;

  /// Transport-level counters (epoll wakeups, writev batching, queue depth);
  /// only socket-backed runtimes populate them.
  IoCounters& io() { return io_; }
  const IoCounters& io() const { return io_; }

  /// Folds every counter into `registry` under `prefix` (e.g. "net."):
  /// message/byte totals and per-type counts as counters, io() values as
  /// counters, the inline-dispatch ratio (x1000) and queue HWM as gauges.
  /// Registry counters are monotone, so export once per experiment (obs.json
  /// dumps), not periodically.
  void ExportTo(obs::Registry& registry, const std::string& prefix) const;

 private:
  mutable std::mutex mutex_;
  uint64_t total_messages_ = 0;
  uint64_t total_bytes_ = 0;
  std::map<MessageType, PipeStats> per_type_;
  std::map<std::pair<NodeId, NodeId>, PipeStats> per_pipe_;
  IoCounters io_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_STATS_H_
