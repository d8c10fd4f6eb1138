// End-to-end benchmark of the global update (Sections 3 and 5 of the paper):
// one named workload per process, closed loop, one update at a time on a
// fresh runtime and Session, every update verified against the centralized
// fix-point. Run through perfbench/run.py, which builds this binary first.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//   perfbench --info
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// installed. --trace 1 alternates plain and traced iterations: the traced
// ones run on the timed runtime decorators (perfbench/e2e) and give the
// per-layer metrics, the plain ones give the tracing overhead. Times in the
// end-to-end metrics are multiples of the yardstick (perfbench/e2e/
// yardstick.h) timed on the same CPU just before. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics": {name:
// {"value", "unit"}}}. Exit status is nonzero when any update or read failed
// verification.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/e2e/layers.h"
#include "perfbench/e2e/reader.h"
#include "perfbench/e2e/timed.h"
#include "perfbench/e2e/yardstick.h"
#include "src/core/global_fixpoint.h"
#include "src/core/session.h"
#include "src/obs/metrics.h"
#include "src/relational/null_iso.h"
#include "src/util/logging.h"
#include "src/workload/queries.h"
#include "src/workload/scenario.h"

namespace p2pdb::perfbench {
namespace {

using Kind = workload::TopologySpec::Kind;

/// One named workload. Why each exists is in perfbench/README.md.
struct WorkloadSpec {
  const char* name;
  bool tcp;
  Kind topology;
  size_t nodes;
  size_t fanout = 2;  // Tree only.
  size_t layers = 3;  // Layered DAG only.
  size_t records_per_node;
  double link_overlap_prob = 0.0;
  /// Reads per second issued while each update runs.
  double read_rate;
};

constexpr WorkloadSpec kWorkloads[] = {
    {.name = "sim_tree_update", .tcp = false, .topology = Kind::kTree,
     .nodes = 31, .records_per_node = 100, .link_overlap_prob = 0.5,
     .read_rate = 2'000},
    {.name = "tcp_dag_fanout", .tcp = true, .topology = Kind::kLayeredDag,
     .nodes = 64, .layers = 4, .records_per_node = 10, .read_rate = 2'000},
    {.name = "tcp_ring_reads", .tcp = true, .topology = Kind::kRing,
     .nodes = 12, .records_per_node = 100, .read_rate = 20'000},
};

/// Scenario variants per run. Each run cycles whole rounds over them, so
/// every variant weighs the same and the variance one seed's data adds is
/// averaged down.
constexpr size_t kVariants = 8;
/// Unmeasured warm-up before the timed window, in whole rounds.
constexpr double kWarmupSeconds = 5;
/// Traced runs record spans for this many traced iterations.
constexpr uint32_t kSpanIterations = 2;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Linear interpolation between closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Runs the system under test on one CPU and gives the reader another: the
/// calling thread keeps only the second-to-last CPU it may run on, and the
/// runtime threads it starts later inherit that mask. On TCP every message
/// hand-off is then a switch between threads of one CPU instead of a wake-up
/// of another virtual CPU, whose delay depends on how the host schedules it
/// (see perfbench/README.md). Reads and the system under test never preempt
/// each other. Returns the reader's CPU, or -1 when fewer than two CPUs are
/// available and nothing is pinned.
int PinCpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      CPU_COUNT(&mask) < 2) {
    return -1;
  }
  int system = -1, reader = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    system = reader;
    reader = cpu;
  }
  CPU_ZERO(&mask);
  CPU_SET(system, &mask);
  return sched_setaffinity(0, sizeof(mask), &mask) == 0 ? reader : -1;
}

/// One scenario instance with everything derived from it outside the timed
/// windows: the oracle and the read stream.
struct Variant {
  core::P2PSystem system;
  core::GlobalFixpointResult oracle;
  std::vector<workload::QueryOp> reads;
  uint64_t sim_seed = 0;
  /// Tuples the update must materialize: the oracle's instances minus the
  /// initial ones. Fixed per variant, unlike the run's own null count.
  uint64_t fixpoint_tuples = 0;
  double build_s = 0;   // BuildScenario: part of set-up.
  double oracle_s = 0;  // Verification machinery, excluded from set-up.
};

Status PrepareVariant(const WorkloadSpec& w, uint64_t seed, size_t index,
                      Variant* v) {
  workload::ScenarioOptions options;
  options.topology.kind = w.topology;
  options.topology.nodes = w.nodes;
  options.topology.fanout = w.fanout;
  options.topology.layers = w.layers;
  options.topology.seed = Mix(seed, 10 + index);
  options.records_per_node = w.records_per_node;
  options.link_overlap_prob = w.link_overlap_prob;
  options.seed = Mix(seed, 20 + index);
  uint64_t start = NowNs();
  auto system = workload::BuildScenario(options);
  v->build_s = Seconds(start, NowNs());
  if (!system.ok()) return system.status();
  v->system = std::move(*system);

  start = NowNs();
  rel::ChaseOptions chase;
  chase.policy = rel::ChasePolicy::kHomomorphismCheck;
  auto oracle = core::ComputeGlobalFixpoint(v->system, chase);
  v->oracle_s = Seconds(start, NowNs());
  if (!oracle.ok()) return oracle.status();
  v->oracle = std::move(*oracle);

  workload::QueryWorkloadOptions reads;
  reads.ops = 4096;
  // Mostly point lookups, so the median read is a point lookup and the tail
  // is made of conjunctive queries; at an even mix the median would sit on
  // the boundary between the two and flip from run to run.
  reads.point_fraction = 0.8;
  reads.seed = Mix(seed, 30 + index);
  auto ops = workload::BuildQueryWorkload(v->system, reads);
  if (!ops.ok()) return ops.status();
  v->reads = std::move(*ops);

  v->sim_seed = Mix(seed, 50 + index);
  uint64_t initial = 0, fixpoint = 0;
  for (NodeId n = 0; n < v->system.node_count(); ++n) {
    initial += v->system.node(n).db.TotalTuples();
    fixpoint += v->oracle.node_dbs[n].TotalTuples();
  }
  v->fixpoint_tuples = fixpoint - initial;
  return Status::OK();
}

struct Metric {
  double value = 0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// What one iteration measured. `layers` is filled on traced ones only.
struct Iteration {
  bool traced = false;
  bool verified = false;  // The update ran and passed verification.
  double construct_s = 0;
  double discovery_ms = 0;
  double yardstick_ms = 0;  // Just before the update, on the same CPU.
  double update_ms = 0;
  double verify_ms = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t tuples = 0;
  Metrics layers;

  /// The update's wall time in multiples of the yardstick.
  double update_ref() const { return update_ms / yardstick_ms; }
};

std::unique_ptr<net::Runtime> MakeRuntime(const WorkloadSpec& w,
                                          const Variant& v,
                                          LayerTrace* trace) {
  if (w.tcp) {
    net::TcpRuntime::Options options;
    options.io_workers = 2;
    if (trace != nullptr) {
      return std::make_unique<TimedTcpRuntime>(options, trace);
    }
    return std::make_unique<net::TcpRuntime>(options);
  }
  net::SimRuntime::Options options{.seed = v.sim_seed,
                                   .max_events = 500'000'000};
  if (trace != nullptr) {
    return std::make_unique<TimedSimRuntime>(options, trace);
  }
  return std::make_unique<net::SimRuntime>(options);
}

/// Every participant closed, with the oracle's null-free tuples. Tuples with
/// labeled nulls are not compared: how many a run keeps depends on the order
/// answers arrive in (see perfbench/README.md).
bool Verify(const core::Session& session, const Variant& v,
            std::string* why) {
  std::set<NodeId> open;
  if (!session.AllClosed(&open)) {
    *why = std::to_string(open.size()) + " participant(s) left open, first " +
           std::to_string(*open.begin());
    return false;
  }
  for (NodeId n : session.Participants()) {
    if (!rel::DatabasesCertainEqual(session.peer(n).db(),
                                    v.oracle.node_dbs[n])) {
      *why = "node " + std::to_string(n) +
             " holds other certain tuples than the oracle";
      return false;
    }
  }
  return true;
}

/// Per-layer values of one traced update. The termination ring, which only
/// some workloads use, is given as a share of the update's wall time.
Metrics LayerMetrics(const LayerTrace::Totals& disc, uint64_t disc_messages,
                     const LayerTrace::Totals& upd, uint64_t start_ns,
                     uint64_t end_ns, net::Runtime& rt,
                     core::Session& session, double chase_us,
                     double mailbox_wait_us) {
  auto d = [](uint64_t x) { return static_cast<double>(x); };
  auto self_us = [](const LayerTrace::Totals& t, Layer l) {
    return static_cast<double>(t.self_ns[static_cast<size_t>(l)]) / 1e3;
  };
  auto calls = [&](Layer l) { return d(upd.calls[static_cast<size_t>(l)]); };
  const double wall_us = d(end_ns - start_ns) / 1e3;
  auto pct = [&](double us) { return 100.0 * Ratio(us, wall_us); };

  core::UpdateEngine::Stats peers;
  for (NodeId n = 0; n < session.peer_count(); ++n) {
    const core::UpdateEngine::Stats& s = session.peer(n).update().stats();
    peers.tuples_inserted += s.tuples_inserted;
    peers.applications_skipped += s.applications_skipped;
    peers.joins_evaluated += s.joins_evaluated;
    peers.answers_sent += s.answers_sent;
    peers.token_passes += s.token_passes;
    peers.reopens += s.reopens;
  }
  const net::IoCounters& io = rt.stats().io();
  const double inline_dispatches = d(io.inline_dispatches.load());
  const double answer_us = self_us(upd, Layer::kAnswer);

  Metrics m;
  m["update.answer_us"] = {answer_us, "us"};
  m["update.answer_count"] = {calls(Layer::kAnswer), "count"};
  m["update.request_us"] = {self_us(upd, Layer::kRequest), "us"};
  m["update.termination_pct"] = {pct(self_us(upd, Layer::kTermination)),
                                 "%"};
  m["update.token_passes"] = {d(peers.token_passes), "count"};
  m["update.termination_tail_ms"] = {
      d(end_ns - std::max(upd.last_growth_ns, start_ns)) / 1e6, "ms"};
  m["update.useful_ratio"] = {
      Ratio(d(peers.tuples_inserted),
            d(peers.tuples_inserted + peers.applications_skipped)),
      "ratio"};
  m["update.joins_evaluated"] = {d(peers.joins_evaluated), "count"};
  m["update.answers_sent"] = {d(peers.answers_sent), "count"};
  m["update.reopens"] = {d(peers.reopens), "count"};
  m["relational.chase_us"] = {chase_us, "us"};
  m["update.answer_nonchase_us"] = {answer_us - chase_us, "us"};
  m["discovery.dispatch_us"] = {self_us(disc, Layer::kDiscovery), "us"};
  m["discovery.messages"] = {d(disc_messages), "count"};
  m["net.send_us"] = {
      self_us(upd, Layer::kSend) + self_us(upd, Layer::kFlush), "us"};
  m["net.sends"] = {calls(Layer::kSend), "count"};
  // Little's law: mailbox residency summed over the window is the mean
  // number of messages waiting in mailboxes.
  m["net.mailbox_queue_mean"] = {Ratio(mailbox_wait_us, wall_us), "count"};
  m["net.frames"] = {d(io.frames_enqueued.load()), "count"};
  m["net.batch_occupancy"] = {
      Ratio(d(io.batched_messages.load()), d(io.batch_frames.load())),
      "ratio"};
  m["net.credit_frames"] = {d(io.credit_frames.load()), "count"};
  m["net.frames_per_writev"] = {io.FramesPerWritev(), "ratio"};
  m["net.epoll_wakeups"] = {d(io.epoll_wakeups.load()), "count"};
  m["net.inline_dispatch_ratio"] = {
      Ratio(inline_dispatches,
            inline_dispatches + d(io.queued_dispatches.load())),
      "ratio"};
  m["net.sendq_hwm_bytes"] = {d(io.send_queue_hwm_bytes.load()), "B"};
  m["net.answer_bytes"] = {
      d(rt.stats().BytesOfType(net::MessageType::kQueryAnswer)), "B"};
  // On Sim, 100 minus this is the event loop and the main thread. On TCP it
  // can exceed 100: the runtime's threads share one CPU, so a handler's
  // interval also covers the time other threads ran while it was preempted.
  m["runtime.handler_busy_pct"] = {pct(d(upd.handler_ns) / 1e3), "%"};
  return m;
}

/// Shortest text that reads back as the same double.
std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

struct RunConfig {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

class Bench {
 public:
  explicit Bench(RunConfig config) : config_(std::move(config)) {}

  int Run() {
    const WorkloadSpec& w = *config_.workload;
    variants_.resize(kVariants);
    for (size_t i = 0; i < kVariants; ++i) {
      Status st = PrepareVariant(w, config_.seed, i, &variants_[i]);
      if (!st.ok()) {
        std::fprintf(stderr, "error: set-up of %s variant %zu failed: %s\n",
                     w.name, i, st.ToString().c_str());
        return 1;
      }
    }
    next_op_.assign(kVariants, 0);
    reader_cpu_ = PinCpus();

    // Plain rounds first, verified but not measured: on sim_tree_update,
    // updates in a process's first seconds took up to 1.7x the steady median.
    uint32_t index = 0;
    const uint64_t warm_start = NowNs();
    while (Seconds(warm_start, NowNs()) < kWarmupSeconds ||
           index % kVariants != 0) {
      RunIteration(index++, false);
    }
    iterations_.clear();
    plain_reads_.ClearSamples();

    // Closed loop over whole rounds of the variants until the run length.
    const uint64_t start = NowNs();
    for (; Seconds(start, NowNs()) < config_.seconds || index % kVariants != 0;
         ++index) {
      // Traced runs alternate plain and traced iterations, so both see the
      // same mix of variants and the same drift.
      RunIteration(index, config_.trace && index % 2 == 1);
    }
    if (config_.trace && !config_.spans.empty() &&
        !trace_.WriteSpans(config_.spans)) {
      std::fprintf(stderr, "error: cannot write %s\n", config_.spans.c_str());
    }
    return Report();
  }

 private:
  void Fail(uint32_t index, const std::string& why) {
    ++failed_updates_;
    std::fprintf(stderr, "FAILED %s iteration %u: %s\n",
                 config_.workload->name, index, why.c_str());
  }

  void RunIteration(uint32_t index, bool traced) {
    const WorkloadSpec& w = *config_.workload;
    const size_t vi = index % kVariants;
    const Variant& v = variants_[vi];
    LayerTrace* trace = traced ? &trace_ : nullptr;
    const bool spans = traced && traced_count_ < kSpanIterations;
    obs::SetDetailedTiming(traced);
    ++attempted_updates_;
    Iteration it;
    it.traced = traced;

    uint64_t t0 = NowNs();
    std::unique_ptr<net::Runtime> rt = MakeRuntime(w, v, trace);
    core::Session::Options options;
    options.peer.update.chase.policy = rel::ChasePolicy::kHomomorphismCheck;
    auto session =
        std::make_unique<core::Session>(v.system, rt.get(), std::move(options));
    it.construct_s = Seconds(t0, NowNs());

    LayerTrace::Totals disc;
    if (trace != nullptr) {
      trace->BeginPhase("session.discovery", index, spans);
    }
    t0 = NowNs();
    Status st = session->RunDiscovery();
    it.discovery_ms = Seconds(t0, NowNs()) * 1e3;
    if (trace != nullptr) disc = trace->EndPhase();
    const uint64_t disc_messages = rt->stats().total_messages();
    if (!st.ok()) {
      Fail(index, "discovery returned " + st.ToString());
      Finish(std::move(session), std::move(rt), std::move(it));
      return;
    }

    rt->stats().Reset();  // Report the update phase, as the paper does.
    obs::Registry& registry = obs::Registry::Global();
    obs::Histogram* chase = registry.GetHistogram("update.chase_apply_micros");
    obs::Histogram* wait = registry.GetHistogram("net.mailbox_wait_micros");
    const uint64_t chase_before = chase->Snapshot().sum;
    const uint64_t wait_before = wait->Snapshot().sum;
    it.yardstick_ms = YardstickUs() / 1e3;
    if (trace != nullptr) trace->BeginPhase("session.update", index, spans);
    uint64_t end = 0;
    {
      OpenLoopReader reader(session.get(), &v.reads, &next_op_[vi],
                            w.read_rate, reader_cpu_, trace,
                            traced ? &traced_reads_ : &plain_reads_);
      t0 = NowNs();
      st = session->RunUpdate();
      end = NowNs();
    }
    it.update_ms = Seconds(t0, end) * 1e3;
    LayerTrace::Totals upd;
    if (trace != nullptr) upd = trace->EndPhase();
    it.messages = rt->stats().total_messages();
    it.bytes = rt->stats().total_bytes();

    const uint64_t verify_start = NowNs();
    std::string why;
    if (!st.ok()) {
      Fail(index, "update returned " + st.ToString());
    } else if (!Verify(*session, v, &why)) {
      Fail(index, why);
    } else {
      it.verified = true;
      it.tuples = v.fixpoint_tuples;
    }
    it.verify_ms = Seconds(verify_start, NowNs()) * 1e3;
    if (traced) {
      it.layers = LayerMetrics(
          disc, disc_messages, upd, t0, end, *rt, *session,
          static_cast<double>(chase->Snapshot().sum - chase_before),
          static_cast<double>(wait->Snapshot().sum - wait_before));
      ++traced_count_;
    }
    Finish(std::move(session), std::move(rt), std::move(it));
  }

  /// Tears the iteration down (the session before its runtime) and keeps
  /// what it measured.
  void Finish(std::unique_ptr<core::Session> session,
              std::unique_ptr<net::Runtime> rt, Iteration it) {
    session.reset();
    rt.reset();
    iterations_.push_back(std::move(it));
  }

  int Report() {
    const WorkloadSpec& w = *config_.workload;
    std::vector<double> plain_ms, plain_ref, traced_ref, tuples_per_ref,
        prepare, discovery, verify, yardstick, build, oracle;
    double tuples = 0, bytes = 0, messages = 0, updates = 0;
    std::map<std::string, std::vector<double>> per_update;
    std::map<std::string, const char*> units;
    for (const Iteration& it : iterations_) {
      if (!it.verified) continue;  // Counted in `failed` instead.
      verify.push_back(it.verify_ms);
      discovery.push_back(it.discovery_ms);
      yardstick.push_back(it.yardstick_ms);
      for (const auto& [name, metric] : it.layers) {
        per_update[name].push_back(metric.value);
        units[name] = metric.unit;
      }
      if (it.traced) {
        traced_ref.push_back(it.update_ref());
        continue;
      }
      plain_ms.push_back(it.update_ms);
      plain_ref.push_back(it.update_ref());
      tuples_per_ref.push_back(static_cast<double>(it.tuples) /
                               it.update_ref());
      prepare.push_back(it.construct_s + it.discovery_ms / 1e3);
      tuples += static_cast<double>(it.tuples);
      bytes += static_cast<double>(it.bytes);
      messages += static_cast<double>(it.messages);
      updates += 1;
    }
    for (const Variant& v : variants_) {
      build.push_back(v.build_s);
      oracle.push_back(v.oracle_s);
    }

    std::vector<std::pair<std::string, Metric>> out;
    auto add = [&](const std::string& name, double value, const char* unit) {
      out.push_back({name, {value, unit}});
    };
    if (!config_.trace) {
      const std::vector<double>& reads = plain_reads_.service_ref;
      add("update_ref_p50", Quantile(plain_ref, 0.5), "ref");
      add("tuples_per_ref", Quantile(tuples_per_ref, 0.5), "1/ref");
      add("bytes_per_tuple", Ratio(bytes, tuples), "B");
      add("messages_per_update", Ratio(messages, updates), "count");
      add("read_ref_p50", Quantile(reads, 0.5), "ref");
      add("read_ref_p99", Quantile(reads, 0.99), "ref");
      // Everything one update waits for before it starts: its inputs, its
      // runtime and Session, and the discovery phase.
      add("setup_s", Quantile(build, 0.5) + Quantile(prepare, 0.5), "s");
    } else {
      for (const auto& [name, values] : per_update) {
        add(name, Mean(values), units[name]);
      }
      const ReadSamples& r = traced_reads_;
      add("query.point_us_p50", Quantile(r.point_us, 0.5), "us");
      add("query.point_us_p99", Quantile(r.point_us, 0.99), "us");
      add("query.cq_us_p50", Quantile(r.cq_us, 0.5), "us");
      add("query.cq_us_p99", Quantile(r.cq_us, 0.99), "us");
      add("query.due_us_p99", Quantile(r.due_us, 0.99), "us");
      add("query.late_us_p99", Quantile(r.late_us, 0.99), "us");
      add("query.staleness_batches_max",
          static_cast<double>(obs::Registry::Global()
                                  .GetGauge("query.snapshot_staleness_batches")
                                  ->Value()),
          "count");
      add("update.wall_ms_p50", Quantile(plain_ms, 0.5), "ms");
      add("update.wall_ms_p90", Quantile(plain_ms, 0.9), "ms");
      add("discovery.wall_ms", Quantile(discovery, 0.5), "ms");
      add("host.yardstick_ms", Quantile(yardstick, 0.5), "ms");
      add("host.reader_yardstick_ms",
          Quantile(plain_reads_.yardstick_us, 0.5) / 1e3, "ms");
      struct rusage usage {};
      getrusage(RUSAGE_SELF, &usage);
      add("process.peak_rss_mb",
          static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
      add("obs.trace_overhead_pct",
          100.0 * (Ratio(Quantile(traced_ref, 0.5),
                         Quantile(plain_ref, 0.5)) -
                   1.0),
          "%");
      add("bench.verify_ms", Quantile(verify, 0.5), "ms");
      add("bench.oracle_s", Quantile(oracle, 0.5), "s");
    }

    const uint64_t failed_reads = plain_reads_.failed + traced_reads_.failed;
    const uint64_t reads = plain_reads_.attempted + traced_reads_.attempted;
    if (failed_reads > 0) {
      std::fprintf(stderr, "FAILED %s: %llu read(s) returned a wrong answer\n",
                   w.name, static_cast<unsigned long long>(failed_reads));
    }
    const uint64_t attempted = attempted_updates_ + reads;
    const uint64_t failed = failed_updates_ + failed_reads;
    std::printf("# %s seed=%llu seconds=%g trace=%d: %zu updates measured "
                "(%u traced) of %llu run, %llu reads, %llu failed\n",
                w.name, static_cast<unsigned long long>(config_.seed),
                config_.seconds, config_.trace ? 1 : 0, iterations_.size(),
                traced_count_,
                static_cast<unsigned long long>(attempted_updates_),
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(failed));
    std::string json = std::string("{\"correct\": ") +
                       (failed == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < out.size(); ++i) {
      const auto& [name, metric] = out[i];
      std::printf("%-32s %22s %s\n", name.c_str(),
                  Number(metric.value).c_str(), metric.unit);
      json += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
              Number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failed == 0 ? 0 : 1;
  }

  RunConfig config_;
  LayerTrace trace_;
  std::vector<Variant> variants_;
  std::vector<size_t> next_op_;  // Read-stream position per variant.
  std::vector<Iteration> iterations_;
  ReadSamples plain_reads_;
  ReadSamples traced_reads_;
  uint64_t attempted_updates_ = 0;
  uint64_t failed_updates_ = 0;
  uint32_t traced_count_ = 0;
  int reader_cpu_ = -1;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n"
               "       perfbench --info\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--info") {
#ifdef __clang__
      const char* compiler = "clang";
#else
      const char* compiler = "gcc";
#endif
      std::printf("{\"compiler\": \"%s %s\", \"build_type\": \"%s\"}\n",
                  compiler, __VERSION__, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) config.workload = &w;
      }
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans = value;
    } else {
      return Usage();
    }
  }
  if (config.workload == nullptr || config.seconds <= 0) return Usage();
  // Only errors on stderr, so that failures stand out.
  SetLogLevel(LogLevel::kError);
  Bench bench(std::move(config));
  return bench.Run();
}

}  // namespace
}  // namespace p2pdb::perfbench

int main(int argc, char** argv) { return p2pdb::perfbench::Main(argc, argv); }
