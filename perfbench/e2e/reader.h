// Open-loop reader: one thread issues the workload's reads against a live
// Session on a fixed schedule (read i is due at start + i / rate) while an
// update propagates. Each read records its service time (inside the Session
// call), its latency from the time it was due — which charges a stall to
// every read that was due during it — and how late the generator started it.
// Before its first read the thread times the yardstick on its CPU, and each
// read's service time is also recorded as a multiple of it.
#ifndef P2PDB_PERFBENCH_E2E_READER_H_
#define P2PDB_PERFBENCH_E2E_READER_H_

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

#include "perfbench/e2e/layers.h"
#include "perfbench/e2e/yardstick.h"
#include "src/core/session.h"
#include "src/workload/queries.h"

namespace p2pdb::perfbench {

/// Samples of every read made, in microseconds unless noted.
struct ReadSamples {
  std::vector<double> point_us;      // Service time of point lookups.
  std::vector<double> cq_us;         // Service time of conjunctive queries.
  std::vector<double> due_us;        // Due time to completion.
  std::vector<double> late_us;       // Due time to start.
  std::vector<double> service_ref;   // Service time ÷ yardstick time (ref).
  std::vector<double> yardstick_us;  // One per reader window.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Drops the samples, keeping the counts of reads made and failed.
  void ClearSamples() {
    point_us.clear();
    cq_us.clear();
    due_us.clear();
    late_us.clear();
    service_ref.clear();
    yardstick_us.clear();
  }
};

class OpenLoopReader {
 public:
  /// Starts reading `ops` (cycled from `*next_op`, which is advanced so the
  /// next window continues the stream) at `rate` reads per second, on CPU
  /// `cpu` alone when it is not negative.
  OpenLoopReader(const core::Session* session,
                 const std::vector<workload::QueryOp>* ops, size_t* next_op,
                 double rate, int cpu, LayerTrace* trace, ReadSamples* out)
      : session_(session), ops_(ops), next_op_(next_op), trace_(trace),
        out_(out), interval_ns_(static_cast<uint64_t>(1e9 / rate)),
        cpu_(cpu), thread_([this] { Loop(); }) {}

  /// Stops issuing reads and joins the thread.
  ~OpenLoopReader() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  OpenLoopReader(const OpenLoopReader&) = delete;
  OpenLoopReader& operator=(const OpenLoopReader&) = delete;

 private:
  void Loop() {
    if (cpu_ >= 0) {
      cpu_set_t mask;
      CPU_ZERO(&mask);
      CPU_SET(cpu_, &mask);
      pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask);
    }
    const double yardstick_us = YardstickUs();
    out_->yardstick_us.push_back(yardstick_us);
    const uint64_t start = NowNs();
    size_t op_index = *next_op_;
    for (uint64_t i = 0;; ++i) {
      const uint64_t due = start + i * interval_ns_;
      // Spin rather than sleep: a sleeping thread wakes late by the
      // kernel's timer slack and scheduling delay (up to milliseconds under
      // load), which would be charged to the read as latency.
      while (NowNs() < due && !stop_.load(std::memory_order_relaxed)) {
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      const workload::QueryOp& op = (*ops_)[op_index++ % ops_->size()];
      uint64_t begin = 0;
      bool ok;
      {
        LayerTrace::Scope scope(trace_, Layer::kQueryRead,
                                op.is_point ? "point" : "cq");
        begin = NowNs();
        ok = op.is_point ? ReadPoint(op) : ReadCq(op);
      }
      const uint64_t end = NowNs();
      ++out_->attempted;
      if (!ok) ++out_->failed;
      out_->due_us.push_back(static_cast<double>(end - due) / 1e3);
      out_->late_us.push_back(static_cast<double>(begin - due) / 1e3);
      const double service_us = static_cast<double>(end - begin) / 1e3;
      (op.is_point ? out_->point_us : out_->cq_us).push_back(service_us);
      out_->service_ref.push_back(service_us / yardstick_us);
    }
    *next_op_ = op_index;
  }

  /// A point lookup must hit exactly the keys the generator drew from the
  /// data: data is never retracted, and "~miss:" keys can never appear.
  bool ReadPoint(const workload::QueryOp& op) const {
    auto hit = session_->QueryPoint(op.node, op.relation, op.key);
    return hit.ok() && *hit == op.expect_hit;
  }
  /// Every generated CQ selects on a constant of an existing tuple, so its
  /// answer is never empty.
  bool ReadCq(const workload::QueryOp& op) const {
    auto rows = session_->Query(op.node, op.cq);
    return rows.ok() && !rows->empty();
  }

  const core::Session* session_;
  const std::vector<workload::QueryOp>* ops_;
  size_t* next_op_;
  LayerTrace* trace_;
  ReadSamples* out_;
  const uint64_t interval_ns_;
  const int cpu_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // Last: starts after every member it reads.
};

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_E2E_READER_H_
