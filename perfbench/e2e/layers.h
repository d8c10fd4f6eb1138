// Per-layer timing measured from outside the program: every interval is taken
// around a public seam (a peer's OnMessage, Runtime::Send, the TCP runtime's
// dispatch-end flush, a read through the Session) and charged to one layer.
// Intervals nest per thread, so a layer's self time excludes the nested
// intervals of other layers — an answer handler's time does not include the
// sends it makes.
//
// Totals are relaxed atomics, read by the main thread once the runtime is
// quiescent.
// Spans (name, start, end, parent, iteration) go into per-thread buffers owned
// by the LayerTrace and are written out as JSON when the benchmark ends.
#ifndef P2PDB_PERFBENCH_E2E_LAYERS_H_
#define P2PDB_PERFBENCH_E2E_LAYERS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace p2pdb::perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// What an interval is charged to. The first five are the peer's handler,
/// split by message type; the rest are the transport and the reader.
enum class Layer : size_t {
  kAnswer,       // kQueryAnswer: join, chase, snapshot publish, notify.
  kRequest,      // kQueryRequest: subscribe and first answer.
  kTermination,  // kToken, kSccClosed, kReopen.
  kUpdateOther,  // kUpdateStart and the remaining update messages.
  kDiscovery,    // kDiscoverRequest / Answer / Closure.
  kSend,         // Runtime::Send.
  kFlush,        // TcpRuntime dispatch-end flush of coalesced frames.
  kQueryRead,    // One read of the open-loop reader.
  kCount,
};
constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

inline bool IsHandlerLayer(Layer layer) {
  return static_cast<size_t>(layer) <= static_cast<size_t>(Layer::kDiscovery);
}

inline const char* LayerSpanName(Layer layer) {
  static constexpr const char* kNames[kLayers] = {
      "peer.dispatch", "peer.dispatch", "peer.dispatch", "peer.dispatch",
      "peer.dispatch", "runtime.send",  "runtime.flush", "query.read"};
  return kNames[static_cast<size_t>(layer)];
}

class LayerTrace {
 public:
  /// Totals of one phase (discovery or update) of one iteration.
  struct Totals {
    std::array<uint64_t, kLayers> self_ns{};
    std::array<uint64_t, kLayers> calls{};
    uint64_t handler_ns = 0;      // Inclusive OnMessage time, all types.
    uint64_t last_growth_ns = 0;  // End of the last dispatch that inserted.
  };

  LayerTrace() = default;
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// A timed interval on the calling thread. Nested scopes (on the same
  /// thread) are subtracted from this one's self time.
  class Scope {
   public:
    Scope(LayerTrace* trace, Layer layer, const char* detail = nullptr)
        : trace_(trace), layer_(layer), detail_(detail), parent_(top_) {
      if (trace_ == nullptr) return;
      top_ = this;
      if (trace_->recording_.load(std::memory_order_relaxed)) {
        span_id_ = trace_->next_span_.fetch_add(1, std::memory_order_relaxed);
      }
      start_ns_ = NowNs();
    }
    ~Scope() {
      if (trace_ == nullptr) return;
      uint64_t end = NowNs();
      uint64_t total = end - start_ns_;
      top_ = parent_;
      if (parent_ != nullptr) parent_->child_ns_ += total;
      trace_->Charge(layer_, total - std::min(total, child_ns_), total);
      if (span_id_ != 0) {
        trace_->RecordSpan({span_id_,
                            parent_ != nullptr && parent_->span_id_ != 0
                                ? parent_->span_id_
                                : trace_->root_span_.load(
                                      std::memory_order_relaxed),
                            start_ns_, end, LayerSpanName(layer_), detail_});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static inline thread_local Scope* top_ = nullptr;
    LayerTrace* trace_;
    Layer layer_;
    const char* detail_;
    Scope* parent_;
    uint64_t span_id_ = 0;
    uint64_t start_ns_ = 0;
    uint64_t child_ns_ = 0;
  };

  /// Starts a phase: zeroes the totals and, when `record_spans`, opens a root
  /// span named `name` that parentless intervals attach to.
  void BeginPhase(const char* name, uint32_t iteration, bool record_spans) {
    for (size_t i = 0; i < kLayers; ++i) {
      self_ns_[i].store(0, std::memory_order_relaxed);
      calls_[i].store(0, std::memory_order_relaxed);
    }
    handler_ns_.store(0, std::memory_order_relaxed);
    last_growth_ns_.store(0, std::memory_order_relaxed);
    iteration_.store(iteration, std::memory_order_relaxed);
    phase_name_ = name;
    phase_start_ns_ = NowNs();
    root_span_.store(
        record_spans ? next_span_.fetch_add(1, std::memory_order_relaxed) : 0,
        std::memory_order_relaxed);
    recording_.store(record_spans && span_budget_.load() > 0,
                     std::memory_order_relaxed);
  }

  /// Ends the phase (call once the runtime is quiescent) and returns its
  /// totals.
  Totals EndPhase() {
    recording_.store(false, std::memory_order_relaxed);
    uint64_t root = root_span_.exchange(0, std::memory_order_relaxed);
    if (root != 0) {
      RecordSpan({root, 0, phase_start_ns_, NowNs(), phase_name_, nullptr});
    }
    Totals totals;
    for (size_t i = 0; i < kLayers; ++i) {
      totals.self_ns[i] = self_ns_[i].load(std::memory_order_relaxed);
      totals.calls[i] = calls_[i].load(std::memory_order_relaxed);
    }
    totals.handler_ns = handler_ns_.load(std::memory_order_relaxed);
    totals.last_growth_ns = last_growth_ns_.load(std::memory_order_relaxed);
    return totals;
  }

  void NoteGrowth(uint64_t at_ns) {
    uint64_t seen = last_growth_ns_.load(std::memory_order_relaxed);
    while (seen < at_ns && !last_growth_ns_.compare_exchange_weak(
                               seen, at_ns, std::memory_order_relaxed)) {
    }
  }

  /// Writes every recorded span as one JSON document. Call after every thread
  /// that recorded has been joined.
  bool WriteSpans(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"clock\": \"steady_ns\", \"spans\": [");
    bool first = true;
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    for (const auto& buffer : buffers_) {
      for (const Span& s : buffer->spans) {
        std::fprintf(out,
                     "%s\n{\"id\": %llu, \"parent\": %llu, \"iter\": %u, "
                     "\"thread\": %u, \"name\": \"%s%s%s\", \"start\": %llu, "
                     "\"end\": %llu}",
                     first ? "" : ",", static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.iteration,
                     buffer->thread, s.name, s.detail != nullptr ? "." : "",
                     s.detail != nullptr ? s.detail : "",
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns));
        first = false;
      }
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    const char* name = nullptr;
    const char* detail = nullptr;
    uint32_t iteration = 0;
  };
  struct SpanBuffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };

  void Charge(Layer layer, uint64_t self_ns, uint64_t total_ns) {
    size_t i = static_cast<size_t>(layer);
    self_ns_[i].fetch_add(self_ns, std::memory_order_relaxed);
    calls_[i].fetch_add(1, std::memory_order_relaxed);
    if (IsHandlerLayer(layer)) {
      handler_ns_.fetch_add(total_ns, std::memory_order_relaxed);
    }
  }

  /// Appends to the calling thread's buffer. Buffers belong to the trace, not
  /// the thread, so spans survive the runtime threads that recorded them.
  void RecordSpan(Span span) {
    if (span_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      recording_.store(false, std::memory_order_relaxed);
      return;
    }
    span.iteration = iteration_.load(std::memory_order_relaxed);
    thread_local SpanBuffer* buffer = nullptr;
    thread_local const LayerTrace* owner = nullptr;
    if (owner != this) {
      std::lock_guard<std::mutex> lock(buffers_mutex_);
      buffers_.push_back(std::make_unique<SpanBuffer>());
      buffer = buffers_.back().get();
      buffer->thread = static_cast<uint32_t>(buffers_.size());
      owner = this;
    }
    buffer->spans.push_back(span);
  }

  std::array<std::atomic<uint64_t>, kLayers> self_ns_{};
  std::array<std::atomic<uint64_t>, kLayers> calls_{};
  std::atomic<uint64_t> handler_ns_{0};
  std::atomic<uint64_t> last_growth_ns_{0};

  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> root_span_{0};
  std::atomic<uint32_t> iteration_{0};
  const char* phase_name_ = "";
  uint64_t phase_start_ns_ = 0;
  /// Caps memory: spans past the budget are not kept.
  std::atomic<int64_t> span_budget_{400'000};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;  // Guarded.
};

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_E2E_LAYERS_H_
