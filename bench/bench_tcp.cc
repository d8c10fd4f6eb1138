// TCP runtime bench: frame-codec throughput (encode/decode, small and large
// payloads), raw loopback ping-pong latency, and end-to-end discovery+update
// wall-clock on TcpRuntime.
// Also measures causal-tracing overhead (off / every root / sampled 1-in-4)
// on a durable TCP update, and can dump the observability snapshot
// (metrics registry + trace reports) as obs.json via --obs.
// Emits BENCH_tcp.json in the same shape as the other harnesses.
//
//   ./bench_tcp [--out FILE] [--repeat N] [--filter SUBSTR] [--obs FILE]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/frame.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/storage_manager.h"

namespace p2pdb::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct BenchResult {
  std::string name;
  std::vector<std::pair<std::string, double>> metrics;

  double Metric(const std::string& key) const {
    for (const auto& [k, v] : metrics) {
      if (k == key) return v;
    }
    return 0;
  }
};

net::Message MakeMessage(size_t payload_bytes) {
  net::Message msg;
  msg.type = net::MessageType::kQueryAnswer;
  msg.from = 3;
  msg.to = 250;
  msg.seq = 123'456;
  msg.payload.assign(payload_bytes, 0x5c);
  return msg;
}

/// Frame codec throughput: encode + decode `count` messages of one size.
BenchResult FrameCodecBench(const std::string& name, size_t payload_bytes,
                            size_t count) {
  BenchResult result;
  result.name = name;
  net::Message msg = MakeMessage(payload_bytes);
  uint64_t checksum = 0;  // Defeats dead-code elimination.
  auto start = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    msg.seq = i;
    std::vector<uint8_t> frame = net::EncodeFrame(msg);
    auto decoded = net::DecodeFrame(frame);
    if (!decoded.ok()) return result;
    checksum += decoded->seq + decoded->payload.size();
  }
  double wall_ms = MsSince(start);
  double wall_s = wall_ms / 1000.0;
  double bytes = static_cast<double>(count) *
                 static_cast<double>(msg.WireSize());
  result.metrics = {
      {"wall_ms", wall_ms},
      {"messages", static_cast<double>(count)},
      {"payload_bytes", static_cast<double>(payload_bytes)},
      {"checksum", static_cast<double>(checksum % 1000)},
      {"msgs_per_sec", wall_s > 0 ? count / wall_s : 0},
      {"mb_per_sec", wall_s > 0 ? bytes / (1024 * 1024) / wall_s : 0},
  };
  return result;
}

/// Replies to every message until `budget` replies are spent.
class PongPeer : public net::PeerHandler {
 public:
  PongPeer(NodeId id, net::Runtime* rt, uint64_t budget)
      : id_(id), runtime_(rt), budget_(budget) {}

  void OnMessage(const net::Message& msg) override {
    received_.fetch_add(1);
    if (budget_ == 0) return;
    --budget_;
    net::Message reply;
    reply.type = msg.type;
    reply.from = id_;
    reply.to = msg.from;
    reply.payload = msg.payload;
    runtime_->Send(reply);
  }

  uint64_t received() const { return received_.load(); }

 private:
  NodeId id_;
  net::Runtime* runtime_;
  uint64_t budget_;
  std::atomic<uint64_t> received_{0};
};

/// Raw loopback round-trip latency over real sockets: one ping-pong chain of
/// `round_trips` exchanges, timed outside Run()'s quiescence overhead.
BenchResult TcpPingPongBench(const std::string& name, size_t round_trips,
                             size_t payload_bytes) {
  BenchResult result;
  result.name = name;
  net::TcpRuntime rt;
  // Peer 1 echoes forever (within budget); peer 0 re-serves until done.
  PongPeer a(0, &rt, round_trips - 1);
  PongPeer b(1, &rt, round_trips);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);

  net::Message ping = MakeMessage(payload_bytes);
  ping.from = 0;
  ping.to = 1;
  auto start = Clock::now();
  auto deadline = start + std::chrono::seconds(60);
  rt.Send(ping);
  while (a.received() < round_trips) {
    // The chain is strictly sequential: one lost frame would otherwise spin
    // this loop forever.
    if (Clock::now() > deadline) return result;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  double wall_ms = MsSince(start);
  double hops = static_cast<double>(2 * round_trips);
  result.metrics = {
      {"wall_ms", wall_ms},
      {"round_trips", static_cast<double>(round_trips)},
      {"payload_bytes", static_cast<double>(payload_bytes)},
      {"rtt_micros", round_trips > 0 ? wall_ms * 1000.0 / round_trips : 0},
      {"hop_micros", hops > 0 ? wall_ms * 1000.0 / hops : 0},
  };
  return result;
}

/// Counts deliveries into a shared counter; the scaling bench only cares
/// about aggregate arrival, not per-peer behaviour.
class CountingPeer : public net::PeerHandler {
 public:
  explicit CountingPeer(std::atomic<uint64_t>* received)
      : received_(received) {}
  void OnMessage(const net::Message& msg) override {
    (void)msg;
    received_->fetch_add(1);
  }

 private:
  std::atomic<uint64_t>* received_;
};

/// Peer-count scaling: N registered peers (N listeners and N-1 live
/// connections on one reactor pool), 64B frames delivered at a constant
/// per-connection rate. A warm-up frame per destination establishes every
/// connection before the clock starts, so the timed region is steady-state
/// throughput; the number that matters is frames_per_sec staying flat as
/// peers grow — the reactor multiplexes connections onto a fixed worker
/// pool, so per-frame cost should not scale with peer count.
BenchResult PeerScalingBench(const std::string& name, size_t peers,
                             size_t frames_per_peer) {
  BenchResult result;
  result.name = name;
  net::TcpRuntime::Options options;
  options.timeout = std::chrono::seconds(120);
  net::TcpRuntime rt(options);
  std::atomic<uint64_t> received{0};
  std::vector<std::unique_ptr<CountingPeer>> handlers;
  handlers.reserve(peers);
  for (size_t i = 0; i < peers; ++i) {
    handlers.push_back(std::make_unique<CountingPeer>(&received));
    rt.RegisterPeer(static_cast<NodeId>(i), handlers.back().get());
  }

  net::Message msg = MakeMessage(64);
  msg.from = 0;
  auto deadline = Clock::now() + std::chrono::seconds(120);
  for (size_t dest = 1; dest < peers; ++dest) {  // Connect warm-up.
    msg.to = static_cast<NodeId>(dest);
    rt.Send(msg);
  }
  while (received.load() < peers - 1) {
    if (Clock::now() > deadline) return result;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  const size_t frames = frames_per_peer * (peers - 1);
  const uint64_t target = received.load() + frames;
  auto start = Clock::now();
  for (size_t dest = 1; dest < peers; ++dest) {
    msg.to = static_cast<NodeId>(dest);
    for (size_t k = 0; k < frames_per_peer; ++k) rt.Send(msg);
  }
  while (received.load() < target) {
    if (Clock::now() > deadline) return result;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  double wall_ms = MsSince(start);
  double wall_s = wall_ms / 1000.0;
  // Registry snapshot of the transport counters: the same numbers obs.json
  // carries, folded into the bench row so CI trend lines catch transport
  // regressions (batching collapse, queue growth) without a separate dump.
  obs::Registry registry;
  rt.stats().ExportTo(registry, "net.");
  obs::Registry::Snapshot snap = registry.TakeSnapshot();
  result.metrics = {
      {"wall_ms", wall_ms},
      {"peers", static_cast<double>(peers)},
      {"frames", static_cast<double>(frames)},
      {"payload_bytes", 64},
      {"frames_per_sec", wall_s > 0 ? frames / wall_s : 0},
      {"frames_per_writev", rt.stats().io().FramesPerWritev()},
      {"inline_dispatch_ratio_x1000",
       static_cast<double>(snap.gauges["net.io.inline_dispatch_ratio_x1000"])},
      {"send_queue_hwm_bytes",
       static_cast<double>(snap.gauges["net.io.send_queue_hwm_bytes"])},
      {"dropped", static_cast<double>(rt.dropped_count())},
  };
  return result;
}

/// Fan-out peer: one trigger dispatch sends `msgs_per_dest` messages to every
/// other peer — the update-plane shape (one handler, many same-destination
/// sends) that frame coalescing packs into one kBatch frame per destination.
class FanoutPeer : public net::PeerHandler {
 public:
  FanoutPeer(NodeId id, net::Runtime* rt, size_t peers, size_t msgs_per_dest)
      : id_(id), runtime_(rt), peers_(peers), msgs_(msgs_per_dest) {}

  void OnMessage(const net::Message&) override {
    for (size_t dest = 1; dest < peers_; ++dest) {
      for (size_t k = 0; k < msgs_; ++k) {
        net::Message m = MakeMessage(64);
        m.from = id_;
        m.to = static_cast<NodeId>(dest);
        runtime_->Send(std::move(m));
      }
    }
  }

 private:
  NodeId id_;
  net::Runtime* runtime_;
  size_t peers_;
  size_t msgs_;
};

/// Frame coalescing under a fan-out update: `rounds` trigger dispatches, each
/// spraying msgs_per_dest messages at peers-1 destinations, driven to exact
/// quiescence. Run once with the default batch cap and once with
/// batch_max_bytes=0 (solo frames, the pre-batching wire behavior) at equal
/// message count: frames_per_update is the headline — coalescing should cut
/// it by the per-destination fan-in factor.
BenchResult CoalescingFanoutBench(const std::string& name, size_t peers,
                                  size_t msgs_per_dest, size_t rounds,
                                  size_t batch_max_bytes) {
  BenchResult result;
  result.name = name;
  net::TcpRuntime::Options options;
  options.timeout = std::chrono::seconds(120);
  options.batch_max_bytes = batch_max_bytes;
  net::TcpRuntime rt(options);
  FanoutPeer fan(0, &rt, peers, msgs_per_dest);
  rt.RegisterPeer(0, &fan);
  std::atomic<uint64_t> received{0};
  std::vector<std::unique_ptr<CountingPeer>> handlers;
  handlers.reserve(peers - 1);
  for (size_t i = 1; i < peers; ++i) {
    handlers.push_back(std::make_unique<CountingPeer>(&received));
    rt.RegisterPeer(static_cast<NodeId>(i), handlers.back().get());
  }

  net::Message trigger = MakeMessage(8);
  trigger.from = 0;
  trigger.to = 0;
  auto start = Clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    rt.Send(trigger);
    if (!rt.Run().ok()) return result;  // Exact fixpoint per round.
  }
  double wall_ms = MsSince(start);
  const double messages =
      static_cast<double>(rounds * ((peers - 1) * msgs_per_dest + 1));
  if (received.load() != rounds * (peers - 1) * msgs_per_dest) return result;
  const double frames =
      static_cast<double>(rt.stats().io().frames_enqueued.load());
  result.metrics = {
      {"wall_ms", wall_ms},
      {"peers", static_cast<double>(peers)},
      {"rounds", static_cast<double>(rounds)},
      {"messages", messages},
      {"frames_enqueued", frames},
      {"frames_per_update", frames / static_cast<double>(rounds)},
      {"batch_frames",
       static_cast<double>(rt.stats().io().batch_frames.load())},
      {"batched_messages",
       static_cast<double>(rt.stats().io().batched_messages.load())},
      {"credit_frames",
       static_cast<double>(rt.stats().io().credit_frames.load())},
      {"frames_per_writev", rt.stats().io().FramesPerWritev()},
      {"dropped", static_cast<double>(rt.dropped_count())},
  };
  return result;
}

/// Fixpoint termination latency: one ping-pong chain injected, then Run() to
/// quiescence; wall time covers the chain AND the termination decision. The
/// credit protocol ends Run() at the exact moment the last frame is credited.
BenchResult FixpointQuiescenceBench(const std::string& name,
                                    size_t exchanges) {
  BenchResult result;
  result.name = name;
  net::TcpRuntime rt;
  PongPeer a(0, &rt, exchanges);
  PongPeer b(1, &rt, exchanges);
  rt.RegisterPeer(0, &a);
  rt.RegisterPeer(1, &b);

  net::Message ping = MakeMessage(64);
  ping.from = 0;
  ping.to = 1;
  auto start = Clock::now();
  rt.Send(ping);
  if (!rt.Run().ok()) return result;
  double wall_ms = MsSince(start);
  result.metrics = {
      {"wall_ms", wall_ms},
      {"exchanges", static_cast<double>(exchanges)},
      {"messages", static_cast<double>(rt.stats().total_messages())},
  };
  return result;
}

/// End-to-end discovery + global update through a Session on one runtime.
BenchResult SessionUpdateBench(const std::string& name, net::Runtime* rt,
                               size_t nodes, size_t records) {
  BenchResult result;
  result.name = name;
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records;
  auto system = workload::BuildScenario(options);
  if (!system.ok()) return result;

  core::Session session(*system, rt);
  auto start = Clock::now();
  if (!session.RunDiscovery().ok()) return result;
  double discovery_ms = MsSince(start);
  start = Clock::now();
  if (!session.RunUpdate().ok()) return result;
  double update_ms = MsSince(start);

  uint64_t inserted = 0;
  for (size_t n = 0; n < session.peer_count(); ++n) {
    inserted += session.peer(n).update().stats().tuples_inserted;
  }
  result.metrics = {
      {"wall_ms", discovery_ms + update_ms},
      {"discovery_ms", discovery_ms},
      {"update_ms", update_ms},
      {"nodes", static_cast<double>(nodes)},
      {"messages", static_cast<double>(rt->stats().total_messages())},
      {"bytes", static_cast<double>(rt->stats().total_bytes())},
      {"tuples_inserted", static_cast<double>(inserted)},
      {"all_closed", session.AllClosed() ? 1.0 : 0.0},
  };
  return result;
}

/// Trace-overhead microbench: the update_tcp_tree8 scenario with durable
/// storage on every node (so chase, WAL and queue-wait instruments all fire)
/// and causal tracing at a given sampling rate. sample_every == 0 runs with
/// tracing fully off — the code is compiled in but every message carries
/// trace_id 0 and the detailed-timing gate is closed, which is the ≤1%
/// steady-state overhead configuration. 1 traces every root update; N traces
/// 1-in-N. When `obs_path` is non-empty the run also folds the runtime
/// counters into the global registry and dumps the full observability
/// snapshot (metrics + trace reports) as JSON.
BenchResult TracedUpdateBench(const std::string& name, size_t nodes,
                              size_t records, uint32_t sample_every,
                              const std::string& obs_path) {
  BenchResult result;
  result.name = name;
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records;
  auto system = workload::BuildScenario(options);
  if (!system.ok()) return result;

  namespace fs = std::filesystem;
  fs::path root = fs::temp_directory_path() / ("p2pdb_bench_" + name);
  fs::remove_all(root);
  net::TcpRuntime rt;
  core::Session::Options session_options;
  session_options.storage_root = root.string();
  core::Session session(*system, &rt, session_options);
  obs::TraceCollector collector;
  if (sample_every > 0) session.EnableTracing(&collector, sample_every);

  for (size_t n = 0; n < nodes; ++n) {
    if (!session.AttachStorage(static_cast<NodeId>(n)).ok()) return result;
  }

  if (!session.RunDiscovery().ok()) return result;
  auto start = Clock::now();
  if (!session.RunUpdate().ok()) return result;
  double update_ms = MsSince(start);

  if (!obs_path.empty()) {
    rt.stats().ExportTo(obs::Registry::Global(), "net.");
    if (obs::WriteObsJson(obs_path, obs::Registry::Global(), &collector)) {
      std::printf("observability dump written to %s\n", obs_path.c_str());
    }
  }
  // The detailed-timing gate is process-global: close it again so later
  // repeats of the untraced benches are not charged for clock reads.
  if (sample_every > 0) session.EnableTracing(nullptr);
  fs::remove_all(root);

  result.metrics = {
      {"wall_ms", update_ms},
      {"update_ms", update_ms},
      {"nodes", static_cast<double>(nodes)},
      {"sample_every", static_cast<double>(sample_every)},
      {"traces", static_cast<double>(collector.TraceIds().size())},
      {"traced_spans", static_cast<double>(collector.TotalSpans())},
      {"messages", static_cast<double>(rt.stats().total_messages())},
      {"all_closed", session.AllClosed() ? 1.0 : 0.0},
  };
  return result;
}

BenchResult Best(BenchResult a, BenchResult b) {
  if (a.metrics.empty()) return b;
  if (b.metrics.empty()) return a;
  return a.Metric("wall_ms") <= b.Metric("wall_ms") ? a : b;
}

/// The `coalescing` summary: headline numbers for the batched-frames +
/// credit-ack work, derived from the bench rows when the relevant rows
/// ran (skipped under --filter otherwise). frame_reduction is solo frames /
/// batched frames at equal message count; fixpoint_ack_ms is the exact
/// ack-based termination's detection latency on one ping-pong chain.
std::vector<std::pair<std::string, double>> CoalescingSummary(
    const std::vector<BenchResult>& results) {
  const BenchResult* batched = nullptr;
  const BenchResult* solo = nullptr;
  const BenchResult* ack = nullptr;
  for (const BenchResult& r : results) {
    if (r.name == "tcp_coalesce_64peers_batched") batched = &r;
    if (r.name == "tcp_coalesce_64peers_solo") solo = &r;
    if (r.name == "tcp_fixpoint_ack") ack = &r;
  }
  std::vector<std::pair<std::string, double>> summary;
  if (batched != nullptr && solo != nullptr &&
      batched->Metric("frames_enqueued") > 0) {
    summary.emplace_back("messages_per_update",
                         batched->Metric("messages") /
                             batched->Metric("rounds"));
    summary.emplace_back("frames_per_update_batched",
                         batched->Metric("frames_per_update"));
    summary.emplace_back("frames_per_update_solo",
                         solo->Metric("frames_per_update"));
    summary.emplace_back("frame_reduction",
                         solo->Metric("frames_enqueued") /
                             batched->Metric("frames_enqueued"));
    summary.emplace_back("frames_per_writev_batched",
                         batched->Metric("frames_per_writev"));
  }
  if (ack != nullptr) {
    summary.emplace_back("fixpoint_ack_ms", ack->Metric("wall_ms"));
  }
  return summary;
}

bool WriteJson(const std::string& path,
               const std::vector<BenchResult>& results, int repeat) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "{\n  \"suite\": \"p2pdb_tcp\",\n  \"repeat\": " << repeat
      << ",\n  \"full_scale\": " << (FullScale() ? "true" : "false")
      << ",\n  \"benches\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    out << "    {\n      \"name\": \"" << results[i].name << "\"";
    for (const auto& [key, value] : results[i].metrics) {
      out << ",\n      \"" << key << "\": " << value;
    }
    out << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]";
  std::vector<std::pair<std::string, double>> summary =
      CoalescingSummary(results);
  if (!summary.empty()) {
    out << ",\n  \"coalescing\": {\n";
    for (size_t i = 0; i < summary.size(); ++i) {
      out << "    \"" << summary[i].first << "\": " << summary[i].second
          << (i + 1 < summary.size() ? "," : "") << "\n";
    }
    out << "  }";
  }
  out << "\n}\n";
  out.flush();
  return !out.fail();
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_tcp.json";
  std::string obs_path;
  std::string filter;
  int repeat = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0 && i + 1 < argc) {
      obs_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_tcp [--out FILE] [--repeat N] "
                   "[--filter SUBSTR] [--obs FILE]\n");
      return 2;
    }
  }

  const size_t codec_count = FullScale() ? 2'000'000 : 200'000;
  const size_t codec_large = FullScale() ? 20'000 : 5'000;
  const size_t pings = FullScale() ? 20'000 : 2'000;
  const size_t nodes = 8;
  const size_t records = FullScale() ? 100 : 25;
  const size_t frames_per_peer = FullScale() ? 300 : 100;
  const size_t coalesce_msgs = 8;  // Fan-in per destination per dispatch.
  const size_t coalesce_rounds = FullScale() ? 40 : 10;
  const size_t fixpoint_exchanges = 50;
  using Maker = std::function<BenchResult()>;
  std::vector<std::pair<std::string, Maker>> cases = {
      {"frame_codec_64b",
       [&] { return FrameCodecBench("frame_codec_64b", 64, codec_count); }},
      {"frame_codec_64kb",
       [&] {
         return FrameCodecBench("frame_codec_64kb", 64 * 1024, codec_large);
       }},
      {"tcp_pingpong_64b",
       [&] { return TcpPingPongBench("tcp_pingpong_64b", pings, 64); }},
      {"tcp_pingpong_4kb",
       [&] {
         return TcpPingPongBench("tcp_pingpong_4kb", pings / 4, 4096);
       }},
      {"tcp_scaling_64peers",
       [&] {
         return PeerScalingBench("tcp_scaling_64peers", 64, frames_per_peer);
       }},
      {"tcp_scaling_256peers",
       [&] {
         return PeerScalingBench("tcp_scaling_256peers", 256, frames_per_peer);
       }},
      {"tcp_scaling_1000peers",
       [&] {
         return PeerScalingBench("tcp_scaling_1000peers", 1000,
                                 frames_per_peer);
       }},
      // Coalescing pair: identical message counts, only the batch cap
      // differs. Compare frames_per_update (the `coalescing` JSON section
      // derives the reduction factor).
      {"tcp_coalesce_64peers_batched",
       [&] {
         return CoalescingFanoutBench("tcp_coalesce_64peers_batched", 64,
                                      coalesce_msgs, coalesce_rounds,
                                      net::TcpRuntime::Options{}
                                          .batch_max_bytes);
       }},
      {"tcp_coalesce_64peers_solo",
       [&] {
         return CoalescingFanoutBench("tcp_coalesce_64peers_solo", 64,
                                      coalesce_msgs, coalesce_rounds, 0);
       }},
      // Termination latency: exact credit-ack quiescence after a ping-pong
      // chain.
      {"tcp_fixpoint_ack",
       [&] {
         return FixpointQuiescenceBench("tcp_fixpoint_ack",
                                        fixpoint_exchanges);
       }},
      {"update_tcp_tree8",
       [&] {
         net::TcpRuntime rt;
         return SessionUpdateBench("update_tcp_tree8", &rt, nodes, records);
       }},
      // Trace-overhead trio: identical durable scenario, only the sampling
      // rate differs. Compare update_ms across the three rows.
      {"trace_off_tcp_tree8",
       [&] {
         return TracedUpdateBench("trace_off_tcp_tree8", nodes, records, 0,
                                  "");
       }},
      {"trace_on_tcp_tree8",
       [&] {
         // The fully-traced run doubles as the obs.json source: its dump has
         // every histogram (chase, WAL, queue wait) and the trace reports.
         return TracedUpdateBench("trace_on_tcp_tree8", nodes, records, 1,
                                  obs_path);
       }},
      {"trace_sampled4_tcp_tree8",
       [&] {
         return TracedUpdateBench("trace_sampled4_tcp_tree8", nodes, records,
                                  4, "");
       }},
  };

  PrintHeader("bench_tcp: frame codec / loopback socket runtime suite");
  std::printf("%-22s %10s %14s %14s\n", "bench", "wall_ms", "msgs/s|RTTus",
              "MB/s|msgs");

  std::vector<BenchResult> results;
  for (const auto& [name, make] : cases) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    BenchResult best;
    for (int r = 0; r < repeat; ++r) best = Best(std::move(best), make());
    if (best.metrics.empty()) {
      std::fprintf(stderr, "error: bench %s failed\n", name.c_str());
      return 1;
    }
    double rate = best.Metric("msgs_per_sec") + best.Metric("rtt_micros");
    double volume = best.Metric("mb_per_sec") + best.Metric("messages");
    std::printf("%-22s %10.2f %14.0f %14.0f\n", best.name.c_str(),
                best.Metric("wall_ms"), rate, volume);
    results.push_back(std::move(best));
  }

  if (results.empty()) {
    std::fprintf(stderr, "no benches matched filter '%s'\n", filter.c_str());
    return 1;
  }
  if (!WriteJson(out_path, results, repeat)) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu benches)\n", out_path.c_str(), results.size());
  return 0;
}

}  // namespace
}  // namespace p2pdb::bench

int main(int argc, char** argv) { return p2pdb::bench::Main(argc, argv); }
