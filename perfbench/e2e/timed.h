// Decorators over the program's public seams, charging their time to a
// LayerTrace: a peer handler wrapper (installed by the runtimes' RegisterPeer
// override) and SimRuntime and TcpRuntime subclasses timing Send and the TCP
// dispatch-end flush. Nothing here changes what the program computes; the
// traced runtimes only observe it.
#ifndef P2PDB_PERFBENCH_E2E_TIMED_H_
#define P2PDB_PERFBENCH_E2E_TIMED_H_

#include <memory>
#include <utility>
#include <vector>

#include "perfbench/e2e/layers.h"
#include "src/core/peer.h"
#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"

namespace p2pdb::perfbench {

inline Layer LayerOf(net::MessageType type) {
  switch (type) {
    case net::MessageType::kQueryAnswer:
      return Layer::kAnswer;
    case net::MessageType::kQueryRequest:
      return Layer::kRequest;
    case net::MessageType::kToken:
    case net::MessageType::kSccClosed:
    case net::MessageType::kReopen:
      return Layer::kTermination;
    case net::MessageType::kDiscoverRequest:
    case net::MessageType::kDiscoverAnswer:
    case net::MessageType::kDiscoverClosure:
      return Layer::kDiscovery;
    default:
      return Layer::kUpdateOther;
  }
}

/// Times one peer's OnMessage and notes when a dispatch grew its database.
class TimedHandler : public net::PeerHandler {
 public:
  TimedHandler(net::PeerHandler* inner, LayerTrace* trace)
      : inner_(inner),
        peer_(dynamic_cast<core::Peer*>(inner)),
        trace_(trace) {}

  void OnMessage(const net::Message& msg) override {
    uint64_t inserted_before = Inserted();
    {
      LayerTrace::Scope scope(trace_, LayerOf(msg.type),
                              net::MessageTypeName(msg.type));
      inner_->OnMessage(msg);
    }
    if (Inserted() != inserted_before) trace_->NoteGrowth(NowNs());
  }

 private:
  uint64_t Inserted() const {
    return peer_ != nullptr ? peer_->update().stats().tuples_inserted : 0;
  }

  net::PeerHandler* inner_;
  core::Peer* peer_;
  LayerTrace* trace_;
};

/// Owns the handler wrappers of one runtime. A restarted peer registers a
/// new handler, so wrappers are kept until the runtime dies: the runtime may
/// still hold the old pointer until re-registration swaps it.
class HandlerWrappers {
 public:
  explicit HandlerWrappers(LayerTrace* trace) : trace_(trace) {}

  net::PeerHandler* Wrap(net::PeerHandler* handler) {
    wrappers_.push_back(std::make_unique<TimedHandler>(handler, trace_));
    return wrappers_.back().get();
  }
  LayerTrace* trace() const { return trace_; }

 private:
  LayerTrace* trace_;
  std::vector<std::unique_ptr<TimedHandler>> wrappers_;
};

/// SimRuntime whose clock seam reads the wall clock. Scheduling uses the
/// simulator's own event clock, so delivery order is unchanged; what changes
/// is that the program's own timers (the chase timer behind the registry's
/// update.chase_apply_micros) measure real time instead of simulated time.
class TimedSimRuntime : public net::SimRuntime {
 public:
  TimedSimRuntime(Options options, LayerTrace* trace)
      : SimRuntime(options), wrappers_(trace) {}

  void RegisterPeer(NodeId id, net::PeerHandler* handler) override {
    SimRuntime::RegisterPeer(id, wrappers_.Wrap(handler));
  }
  void Send(net::Message msg) override {
    LayerTrace::Scope scope(wrappers_.trace(), Layer::kSend);
    SimRuntime::Send(std::move(msg));
  }
  uint64_t NowMicros() const override { return NowNs() / 1000; }

 private:
  HandlerWrappers wrappers_;
};

class TimedTcpRuntime : public net::TcpRuntime {
 public:
  TimedTcpRuntime(Options options, LayerTrace* trace)
      : TcpRuntime(std::move(options)), wrappers_(trace) {}
  /// Joins the runtime's threads while the overrides they call still exist.
  ~TimedTcpRuntime() override { Shutdown(); }

  void RegisterPeer(NodeId id, net::PeerHandler* handler) override {
    TcpRuntime::RegisterPeer(id, wrappers_.Wrap(handler));
  }
  void Send(net::Message msg) override {
    LayerTrace::Scope scope(wrappers_.trace(), Layer::kSend);
    TcpRuntime::Send(std::move(msg));
  }

 protected:
  void EndDispatch() override {
    LayerTrace::Scope scope(wrappers_.trace(), Layer::kFlush);
    TcpRuntime::EndDispatch();
  }

 private:
  HandlerWrappers wrappers_;
};

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_E2E_TIMED_H_
