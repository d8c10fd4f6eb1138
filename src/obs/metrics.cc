#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>

#include "src/util/string_util.h"

namespace p2pdb::obs {

namespace {

std::atomic<bool> g_detailed_timing{false};

/// Stable per-thread shard index: threads are assigned round-robin on first
/// record, so up to kShards concurrent recorders never share a cell.
size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void RaiseAtomicMax(std::atomic<uint64_t>* cell, uint64_t value) {
  uint64_t seen = cell->load(std::memory_order_relaxed);
  while (value > seen && !cell->compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void SetDetailedTiming(bool enabled) {
  g_detailed_timing.store(enabled, std::memory_order_relaxed);
}

bool DetailedTimingEnabled() {
  return g_detailed_timing.load(std::memory_order_relaxed);
}

void Counter::Add(uint64_t n) {
  shards_[ThreadShard() % kShards].value.fetch_add(n,
                                                   std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

void Gauge::RaiseTo(int64_t value) {
  int64_t seen = value_.load(std::memory_order_relaxed);
  while (value > seen && !value_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::BucketUpperBound(size_t b) {
  if (b == 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

void Histogram::Record(uint64_t value) {
  size_t bucket = static_cast<size_t>(std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  RaiseAtomicMax(&max_, value);
}

uint64_t Histogram::Count() const {
  uint64_t count = 0;
  for (const auto& b : buckets_) count += b.load(std::memory_order_relaxed);
  return count;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::array<uint64_t, kBuckets> counts;
  HistogramSnapshot snap;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.count += counts[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  auto quantile = [&](double q) -> uint64_t {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(snap.count));
    if (rank >= snap.count) rank = snap.count - 1;
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts[b];
      if (seen > rank) return BucketUpperBound(b);
    }
    return snap.max;
  };
  snap.p50 = quantile(0.50);
  snap.p95 = quantile(0.95);
  snap.p99 = quantile(0.99);
  // The bucket bound can overshoot the true maximum; clamp so p99 <= max.
  snap.p50 = std::min(snap.p50, snap.max);
  snap.p95 = std::min(snap.p95, snap.max);
  snap.p99 = std::min(snap.p99, snap.max);
  return snap;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // Leaked: outlives all users.
  return *instance;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

Registry::Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

std::string Registry::ReportJson() const {
  Snapshot snap = TakeSnapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += StrFormat("%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out += StrFormat("%s\n    \"%s\": %lld", first ? "" : ",", name.c_str(),
                     static_cast<long long>(value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += StrFormat(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.2f, "
        "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu, \"max\": %llu}",
        first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(h.count),
        static_cast<unsigned long long>(h.sum), h.Mean(),
        static_cast<unsigned long long>(h.p50),
        static_cast<unsigned long long>(h.p95),
        static_cast<unsigned long long>(h.p99),
        static_cast<unsigned long long>(h.max));
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    (void)name;
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    (void)name;
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    (void)name;
    histogram->Reset();
  }
}

}  // namespace p2pdb::obs
