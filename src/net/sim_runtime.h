// Deterministic discrete-event simulation runtime. Message latency follows
// the per-pipe latency model; per-link FIFO order is preserved (pipes are
// reliable ordered channels, like JXTA pipes over TCP).
#ifndef P2PDB_NET_SIM_RUNTIME_H_
#define P2PDB_NET_SIM_RUNTIME_H_

#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "src/net/pipe.h"
#include "src/net/runtime.h"
#include "src/util/rng.h"

namespace p2pdb::net {

/// Observes every delivered message (used by the Figure-1 trace bench).
using MessageTracer = std::function<void(uint64_t time_micros, const Message&)>;

class SimRuntime : public Runtime {
 public:
  struct Options {
    uint64_t seed = 42;
    /// Hard cap on delivered events per Run(); exceeded => Internal error
    /// (guards against protocol non-termination bugs).
    uint64_t max_events = 50'000'000;
    /// Failure injection: probability that an idempotent data-plane message
    /// (discovery requests/answers, update start, query requests/answers,
    /// unsubscribe, partial update) is delivered twice. Duplicates stutter —
    /// they arrive immediately after the original, preserving per-link FIFO —
    /// modelling at-least-once delivery. Control messages (tokens, closure,
    /// change notifications) stay exactly-once, matching the reliable-pipe
    /// assumption the fix-point detector needs.
    double duplicate_prob = 0.0;
  };

  SimRuntime() : SimRuntime(Options{}) {}
  explicit SimRuntime(Options options);

  void RegisterPeer(NodeId id, PeerHandler* handler) override;
  void UnregisterPeer(NodeId id) override;
  void Send(Message msg) override;
  Status Run() override;
  /// Delivers events with time <= `time_micros`, then advances the clock to
  /// exactly that time (so scripted events fire at deterministic times).
  Status RunUntil(uint64_t time_micros) override;
  uint64_t NowMicros() const override { return now_micros_; }

  /// Number of messages delivered so far (across Run calls).
  uint64_t delivered_count() const { return delivered_; }

  /// Messages dropped because their destination was unregistered (crashed).
  uint64_t dropped_count() const override { return dropped_; }

  /// Per-link latency model every Send() samples.
  PipeTable& pipes() { return pipes_; }

  void set_tracer(MessageTracer tracer) { tracer_ = std::move(tracer); }

 private:
  Status Drain(uint64_t until_micros);

  struct Event {
    uint64_t time;
    uint64_t seq;
    Message msg;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  Options options_;
  Rng rng_;
  PipeTable pipes_;
  MessageTracer tracer_;
  uint64_t now_micros_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t delivered_ = 0;
  uint64_t dropped_ = 0;
  std::map<NodeId, PeerHandler*> peers_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  // Last scheduled delivery time per directed link, to enforce FIFO.
  std::map<std::pair<NodeId, NodeId>, uint64_t> last_delivery_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_SIM_RUNTIME_H_
