// Metrics registry: named counters, gauges, and log-bucketed latency
// histograms — the paper's per-node "statistical module" grown into a
// process-wide instrument panel. Recording is designed for hot paths:
// counters shard their cells across threads (one relaxed add, no shared
// cache line ping-pong under contention), histograms bucket by bit width
// (two relaxed adds and a CAS-max), and instrument pointers are stable for
// the registry's lifetime so call sites resolve a name exactly once.
//
// Snapshot()/ReportJson() read a consistent-enough view for
// experiment dumps (individual cells are atomic; cross-instrument skew is
// acceptable by design — these are statistics, not ledgers). Reset() zeroes
// every instrument in place for per-experiment sweeps without invalidating
// cached pointers.
//
// Per-message timing instruments (mailbox queue wait) cost a clock read per
// message, which the steady-state frame path cannot afford by default; they
// are gated behind SetDetailedTiming(true), a single relaxed load when off.
#ifndef P2PDB_OBS_METRICS_H_
#define P2PDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace p2pdb::obs {

/// Monotone event count. Add() is wait-free and contention-sharded: each
/// thread lands on one of kShards padded cells, so concurrent recorders do
/// not serialize on a single cache line. Value() sums the shards (racing
/// adds may or may not be included — monotone either way).
class Counter {
 public:
  void Add(uint64_t n = 1);
  void Increment() { Add(1); }
  uint64_t Value() const;
  void Reset();

 private:
  static constexpr size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Last-written instantaneous value (queue depth, table size, ratio x1000).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  /// Raises the gauge to `value` if it is a new maximum (high-water marks).
  void RaiseTo(int64_t value);
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one histogram, with quantiles estimated from the
/// log-bucket upper bounds (a value recorded as 300 reports p50 as 511 — the
/// resolution is the price of wait-free recording; sums and counts are exact).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Log-bucketed distribution: bucket b holds values with bit width b, i.e.
/// the range [2^(b-1), 2^b - 1] (bucket 0 holds exactly 0). Record() is
/// wait-free: one relaxed add per bucket and sum, plus a CAS max.
class Histogram {
 public:
  void Record(uint64_t value);
  HistogramSnapshot Snapshot() const;
  uint64_t Count() const;
  void Reset();

  /// Inclusive upper bound of bucket `b` (2^b - 1; bucket 0 → 0).
  static uint64_t BucketUpperBound(size_t b);

 private:
  static constexpr size_t kBuckets = 65;  // Bit widths 0..64.
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Named instruments, created on first use and stable for the registry's
/// lifetime. Lookup takes a mutex — resolve once and cache the pointer:
///
///   static obs::Histogram* h =
///       obs::Registry::Global().GetHistogram("wal.append_micros");
///   h->Record(micros);
class Registry {
 public:
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };

  /// The process-wide registry every subsystem records into. Hot layers
  /// (WAL, chase, mailbox, reactor) have no common owner object to hang a
  /// registry off; a process singleton keeps the instrumentation one line
  /// per site. Tests and sweeps isolate experiments with Reset().
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  Snapshot TakeSnapshot() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  std::string ReportJson() const;

  /// Zeroes every instrument in place (cached pointers stay valid).
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Gate for per-message timing instruments (one clock read per message —
/// mailbox queue wait). Off by default so the steady-state frame path pays
/// only this relaxed load; tracing sessions and obs dumps switch it on.
void SetDetailedTiming(bool enabled);
bool DetailedTimingEnabled();

}  // namespace p2pdb::obs

#endif  // P2PDB_OBS_METRICS_H_
