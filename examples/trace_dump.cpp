// Causal trace renderer: load a network description, run discovery and one
// traced global update, then print the propagation tree the update carved
// through the network — per-hop receive offsets, queue wait, chase and WAL
// time, bytes, and the critical path to the fixpoint. The wall-clock time of
// the update phase is printed next to the traced fixpoint latency so the two
// can be compared directly.
//
//   ./trace_dump <network.p2p> [--super NODE] [--sim] [--obs FILE.json]
//                [--durable DIR]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/core/session.h"
#include "src/lang/parser.h"
#include "src/net/sim_runtime.h"
#include "src/net/tcp_runtime.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/file_util.h"

using namespace p2pdb;  // NOLINT

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: trace_dump <network.p2p> [--super NODE]\n"
               "                  [--sim] [--obs FILE.json]\n"
               "                  [--durable DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string text;
  if (Status read = ReadFile(argv[1], &text); !read.ok()) {
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return 1;
  }

  std::string super_name;
  std::string obs_path;
  std::string durable_dir;
  bool use_sim = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--super") == 0 && i + 1 < argc) {
      super_name = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0 && i + 1 < argc) {
      obs_path = argv[++i];
    } else if (std::strcmp(argv[i], "--durable") == 0 && i + 1 < argc) {
      durable_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--sim") == 0) {
      use_sim = true;
    } else {
      return Usage();
    }
  }

  auto system = lang::ParseSystem(text);
  if (!system.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 system.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<net::Runtime> runtime;
  if (use_sim) {
    runtime = std::make_unique<net::SimRuntime>();
  } else {
    runtime = std::make_unique<net::TcpRuntime>();
  }

  core::Session::Options options;
  if (!super_name.empty()) {
    auto id = system->NodeByName(super_name);
    if (!id.ok()) {
      std::fprintf(stderr, "unknown super-peer %s\n", super_name.c_str());
      return 1;
    }
    options.super_peer = *id;
  }
  options.storage_root = durable_dir;  // Logs in <DIR>/peer<id>.
  core::Session session(*system, runtime.get(), options);

  obs::TraceCollector collector;
  session.EnableTracing(&collector);

  if (!durable_dir.empty()) {
    // Durable peers: every chase delta goes through a real WAL, so the trace
    // spans (and obs.json histograms) include WAL append/fsync time.
    for (size_t n = 0; n < session.peer_count(); ++n) {
      if (Status st = session.AttachStorage(static_cast<NodeId>(n));
          !st.ok()) {
        std::fprintf(stderr, "attach storage failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
  }

  if (Status st = session.RunDiscovery(); !st.ok()) {
    std::fprintf(stderr, "discovery failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto update_start = std::chrono::steady_clock::now();
  if (Status st = session.RunUpdate(); !st.ok()) {
    std::fprintf(stderr, "update failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto wall_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - update_start)
          .count();

  for (uint64_t trace_id : collector.TraceIds()) {
    std::printf("%s", collector.RenderTree(trace_id).c_str());
  }
  std::printf(
      "update phase wall clock: %lldus (includes quiescence detection)\n",
      static_cast<long long>(wall_micros));

  if (!obs_path.empty()) {
    runtime->stats().ExportTo(obs::Registry::Global(), "net.");
    if (!obs::WriteObsJson(obs_path, obs::Registry::Global(), &collector)) {
      return 1;
    }
    std::printf("observability dump written to %s\n", obs_path.c_str());
  }
  return 0;
}
