// Observability layer: metrics registry semantics (exact counts under
// concurrent recording — the TSan job runs this file), histogram bucketing
// and quantiles, IoCounters queue-depth monotonicity under races, the
// NetStats::Reset contract (io() counters reset too), and trace collection —
// span DAG reconstruction, fixpoint latency, critical path, sampling.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/net/stats.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/log_capture.h"

namespace p2pdb {
namespace {

TEST(CounterTest, CountsExactlyUnderConcurrency) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kAddsPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, RaiseToKeepsMaxUnderConcurrency) {
  obs::Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 10'000; ++i) gauge.RaiseTo(t * 10'000 + i);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), (kThreads - 1) * 10'000 + 9'999);
}

TEST(HistogramTest, BucketsByBitWidth) {
  obs::Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(300);   // Bucket 9: [256, 511].
  h.Record(1000);  // Bucket 10: [512, 1023].
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1301u);
  EXPECT_EQ(snap.max, 1000u);
  // Quantiles report bucket upper bounds (upper-median convention: rank
  // floor(q*count)), clamped to the true max.
  EXPECT_EQ(snap.p50, 511u);  // 300 lands in bucket [256, 511].
  EXPECT_EQ(snap.p99, 1000u);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.max);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
}

TEST(HistogramTest, ExactCountAndSumUnderConcurrency) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kRecordsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) h.Record(i % 1024);
    });
  }
  for (std::thread& t : threads) t.join();
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kRecordsPerThread);
  uint64_t per_thread_sum = 0;
  for (uint64_t i = 0; i < kRecordsPerThread; ++i) per_thread_sum += i % 1024;
  EXPECT_EQ(snap.sum, kThreads * per_thread_sum);
  EXPECT_EQ(snap.max, 1023u);
}

TEST(RegistryTest, PointersAreStableAndSnapshotsComplete) {
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c, registry.GetCounter("test.counter"));
  c->Add(7);
  registry.GetGauge("test.gauge")->Set(-3);
  registry.GetHistogram("test.hist")->Record(42);

  obs::Registry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("test.counter"), 7u);
  EXPECT_EQ(snap.gauges.at("test.gauge"), -3);
  EXPECT_EQ(snap.histograms.at("test.hist").count, 1u);

  std::string json = registry.ReportJson();
  EXPECT_NE(json.find("\"test.counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);

  registry.Reset();  // Zeroes in place: the cached pointer stays usable.
  EXPECT_EQ(c->Value(), 0u);
  c->Add(1);
  EXPECT_EQ(registry.TakeSnapshot().counters.at("test.counter"), 1u);
}

TEST(RegistryTest, ConcurrentLookupAndRecordIsSafe) {
  obs::Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 2'000; ++i) {
        registry.GetCounter("shared.counter")->Increment();
        registry.GetHistogram("shared.hist")->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("shared.counter")->Value(),
            uint64_t{kThreads} * 2'000);
  EXPECT_EQ(registry.GetHistogram("shared.hist")->Count(),
            uint64_t{kThreads} * 2'000);
}

TEST(IoCountersTest, RecordQueueDepthIsMonotoneUnderRaces) {
  net::IoCounters counters;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counters, t] {
      // Interleaved rising and falling depths: the HWM must end at the
      // global maximum no matter how the CAS races resolve.
      for (int i = 0; i < 10'000; ++i) {
        counters.RecordQueueDepth(static_cast<uint64_t>((i * 7919) % 50'000));
      }
      counters.RecordQueueDepth(static_cast<uint64_t>(100'000 + t));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counters.send_queue_hwm_bytes.load(),
            uint64_t{100'000 + kThreads - 1});
}

TEST(NetStatsTest, ResetAlsoResetsIoCounters) {
  // Pins the contract bench sweeps rely on: one Reset() call clears the
  // per-type counters AND the transport io() counters, so no experiment
  // bleeds into the next.
  net::NetStats stats;
  net::Message msg;
  msg.type = net::MessageType::kQueryAnswer;
  msg.from = 1;
  msg.to = 2;
  stats.RecordSend(msg);
  stats.io().writev_calls.fetch_add(5);
  stats.io().RecordQueueDepth(999);
  ASSERT_GT(stats.total_messages(), 0u);

  stats.Reset();
  EXPECT_EQ(stats.total_messages(), 0u);
  EXPECT_EQ(stats.total_bytes(), 0u);
  EXPECT_EQ(stats.io().writev_calls.load(), 0u);
  EXPECT_EQ(stats.io().send_queue_hwm_bytes.load(), 0u);
}

TEST(NetStatsTest, ExportToFoldsCountersIntoRegistry) {
  net::NetStats stats;
  net::Message msg;
  msg.type = net::MessageType::kToken;
  msg.from = 0;
  msg.to = 1;
  stats.RecordSend(msg);
  stats.io().inline_dispatches.fetch_add(3);
  stats.io().queued_dispatches.fetch_add(1);
  stats.io().RecordQueueDepth(4096);

  obs::Registry registry;
  stats.ExportTo(registry, "net.");
  obs::Registry::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("net.messages"), 1u);
  EXPECT_EQ(snap.counters.at("net.type.Token.messages"), 1u);
  EXPECT_EQ(snap.gauges.at("net.io.inline_dispatch_ratio_x1000"), 750);
  EXPECT_EQ(snap.gauges.at("net.io.send_queue_hwm_bytes"), 4096);
}

obs::TraceSpan MakeSpan(uint64_t trace, uint64_t span, uint64_t parent,
                        uint32_t hop, NodeId node, uint64_t recv,
                        uint64_t end) {
  obs::TraceSpan s;
  s.trace_id = trace;
  s.span_id = span;
  s.parent_span = parent;
  s.hop = hop;
  s.node = node;
  s.recv_micros = recv;
  s.end_micros = end;
  s.bytes = 100;
  return s;
}

TEST(TraceCollectorTest, AnalyzeReportsFixpointAndCriticalPath) {
  obs::TraceCollector collector;
  // Root at node 0 fans out to nodes 1 and 2; node 2 forwards to node 3,
  // which finishes last — the critical path is 0 -> 2 -> 3.
  collector.Record(MakeSpan(1, 10, 0, 0, 0, 1'000, 1'100));
  collector.Record(MakeSpan(1, 11, 10, 1, 1, 1'200, 1'300));
  collector.Record(MakeSpan(1, 12, 10, 1, 2, 1'250, 1'400));
  collector.Record(MakeSpan(1, 13, 12, 2, 3, 1'500, 1'900));

  obs::TraceReport report = collector.Analyze(1);
  EXPECT_EQ(report.span_count, 4u);
  EXPECT_EQ(report.max_hop, 2u);
  EXPECT_EQ(report.total_bytes, 400u);
  EXPECT_EQ(report.fixpoint_micros, 900u);  // 1'900 end - 1'000 root recv.
  ASSERT_EQ(report.critical_path.size(), 3u);
  EXPECT_EQ(report.critical_path[0].node, 0u);
  EXPECT_EQ(report.critical_path[1].node, 2u);
  EXPECT_EQ(report.critical_path[2].node, 3u);
  ASSERT_EQ(report.per_hop.size(), 3u);
  EXPECT_EQ(report.per_hop[1].spans, 2u);

  std::string tree = collector.RenderTree(1);
  EXPECT_NE(tree.find("fixpoint 900us"), std::string::npos);
  EXPECT_NE(tree.find("node 3"), std::string::npos);
  EXPECT_NE(tree.find("critical path:"), std::string::npos);

  std::string json = collector.ReportJson();
  EXPECT_NE(json.find("\"fixpoint_micros\": 900"), std::string::npos);
}

TEST(TraceCollectorTest, SamplingTracesOneInN) {
  obs::TraceCollector collector;
  collector.set_sample_every(4);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (collector.SampleRoot()) ++sampled;
  }
  EXPECT_EQ(sampled, 4);

  collector.set_sample_every(0);  // Disabled: nothing is sampled.
  EXPECT_FALSE(collector.SampleRoot());
}

TEST(ObsExportTest, WriteToAFullDiskFails) {
  // /dev/full takes the open and fails the write (ENOSPC), which a buffered
  // writer reports only at close.
  obs::Registry registry;
  ScopedLogCapture capture;
  EXPECT_FALSE(obs::WriteObsJson("/dev/full", registry, nullptr));
  const std::vector<std::string> lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("/dev/full"), std::string::npos) << lines[0];
}

TEST(TraceCollectorTest, UntracedSpansAreIgnoredAndClearWorks) {
  obs::TraceCollector collector;
  collector.Record(obs::TraceSpan{});  // trace_id 0: not a traced span.
  EXPECT_EQ(collector.TotalSpans(), 0u);
  collector.Record(MakeSpan(7, 1, 0, 0, 0, 0, 10));
  EXPECT_EQ(collector.TotalSpans(), 1u);
  EXPECT_EQ(collector.TraceIds(), std::vector<uint64_t>{7});
  collector.Clear();
  EXPECT_EQ(collector.TotalSpans(), 0u);
}

}  // namespace
}  // namespace p2pdb
