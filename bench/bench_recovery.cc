// Durability bench: log append throughput (sync and nosync),
// recovery (base + delta replay) time as a function of database size, the
// same on restart (reopening the closed log first), plus one end-to-end
// crash/restart churn run on the sim runtime. Every recovery and restart
// row checks that it rebuilt the logged database, log order included, and
// the binary exits nonzero when one did not. Emits
// BENCH_recovery.json in the same shape as bench_main.
//
//   ./bench_recovery [--out FILE] [--repeat N] [--filter SUBSTR]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/storage/storage_manager.h"
#include "src/util/log_capture.h"

namespace p2pdb::bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("p2pdb_bench_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Appends `tuples` new publication rows to `db`'s "pub" relation.
void AddPubs(rel::Database* db, size_t tuples) {
  const size_t first = db->relation("pub").size();
  for (size_t i = first; i < first + tuples; ++i) {
    int64_t year = 1990 + static_cast<int64_t>(i % 30);
    (void)db->Insert(
        "pub", rel::Tuple({rel::Value::Int(static_cast<int64_t>(i)),
                           rel::Value::Str("title-" + std::to_string(i)),
                           rel::Value::Int(year)}));
  }
}

/// A flat publication-style database with `tuples` rows.
rel::Database MakeDb(size_t tuples) {
  rel::Database db;
  (void)db.CreateRelation(
      rel::RelationSchema("pub", {"id", "title", "year"}));
  AddPubs(&db, tuples);
  return db;
}

/// True when `a` and `b` hold the same relations, with the same attributes
/// and the same entries in the same log order.
bool SameLogs(const rel::Database& a, const rel::Database& b) {
  if (a.relations().size() != b.relations().size()) return false;
  for (const rel::Relation& relation : a.relations()) {
    const rel::RelationId id = b.Find(relation.name());
    const rel::Relation* other =
        id == rel::kNoRelation ? nullptr : &b.relation(id);
    if (other == nullptr ||
        other->schema().attributes() != relation.schema().attributes() ||
        other->size() != relation.size()) {
      return false;
    }
    const rel::LogView mine = relation.View();
    const rel::LogView theirs = other->View();
    for (size_t i = 0; i < mine.size(); ++i) {
      if (!(mine.at(i) == theirs.at(i))) return false;
    }
  }
  return true;
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

/// WAL append throughput: `batches` deltas of `batch_tuples` tuples each.
/// Only the LogDelta calls are timed, not growing the relation they log.
BenchResult WalAppendBench(const std::string& name, storage::SyncMode sync,
                           size_t batches, size_t batch_tuples) {
  BenchResult result;
  result.name = name;
  storage::StorageOptions options;
  options.dir = FreshDir(name);
  options.sync = sync;
  auto manager = storage::StorageManager::Open(options);
  if (!manager.ok()) return result;
  rel::Database db = MakeDb(0);
  Clock::duration logging{};
  for (size_t b = 0; b < batches; ++b) {
    const rel::Version since = db.version();
    AddPubs(&db, batch_tuples);
    auto logged_at = Clock::now();
    Status logged = (*manager)->LogDelta(db, since);
    logging += Clock::now() - logged_at;
    if (!logged.ok()) return result;
  }
  double wall_ms =
      std::chrono::duration<double, std::milli>(logging).count();
  double wall_s = wall_ms / 1000.0;
  double bytes = static_cast<double>((*manager)->wal_bytes());
  result.metrics = {
      {"wall_ms", wall_ms},
      {"records", static_cast<double>(batches)},
      {"tuples", static_cast<double>(batches * batch_tuples)},
      {"wal_bytes", bytes},
      {"fsyncs", static_cast<double>((*manager)->wal_syncs())},
      {"records_per_sec", wall_s > 0 ? batches / wall_s : 0},
      {"tuples_per_sec", wall_s > 0 ? batches * batch_tuples / wall_s : 0},
      {"mb_per_sec", wall_s > 0 ? bytes / (1024 * 1024) / wall_s : 0},
  };
  fs::remove_all(options.dir);
  return result;
}

/// Full recovery (a base of `base_tuples` + `wal_records` deltas) time.
/// With `restart` the manager that wrote the log is closed first, and the
/// row times Open + Recover of the closed log — what a re-exec'd
/// p2pdb_peerd or Session::RestartPeer pays; otherwise it times Recover
/// alone on the open manager. Fails unless the recovered database equals
/// the logged one, log order included.
BenchResult RecoveryBench(const std::string& name, size_t base_tuples,
                          size_t wal_records, size_t batch_tuples,
                          bool restart) {
  BenchResult result;
  result.name = name;
  storage::StorageOptions options;
  options.dir = FreshDir(name);
  options.sync = storage::SyncMode::kNoSync;
  auto manager = storage::StorageManager::Open(options);
  if (!manager.ok()) return result;
  rel::Database db = MakeDb(base_tuples);
  if (!(*manager)->EnsureBase(db).ok()) return result;
  for (size_t r = 0; r < wal_records; ++r) {
    const rel::Version since = db.version();
    AddPubs(&db, batch_tuples);
    if (!(*manager)->LogDelta(db, since).ok()) return result;
  }

  if (restart) manager->reset();
  auto start = Clock::now();
  if (restart) manager = storage::StorageManager::Open(options);
  const double open_ms = MsSince(start);
  if (!manager.ok()) return result;
  storage::RecoveryInfo info;
  auto recovered = (*manager)->Recover(&info);
  double wall_ms = MsSince(start);
  if (!recovered.ok() || !SameLogs(*recovered, db)) {
    std::fprintf(stderr, "error: %s did not rebuild the logged database\n",
                 name.c_str());
    return result;
  }
  result.metrics = {
      {"wall_ms", wall_ms},
      {"base_tuples", static_cast<double>(base_tuples)},
      {"wal_records", static_cast<double>(info.wal_records_replayed)},
      {"wal_bytes", static_cast<double>(info.wal_bytes_scanned)},
      {"tuples_recovered", static_cast<double>(info.tuples_recovered)},
      {"recover_tuples_per_sec",
       wall_ms > 0 ? info.tuples_recovered / (wall_ms / 1000.0) : 0},
  };
  if (restart) result.metrics.emplace_back("open_ms", open_ms);
  fs::remove_all(options.dir);
  return result;
}

/// End-to-end churn: a tree update with one crash/restart mid-propagation.
BenchResult ChurnBench(const std::string& name, size_t nodes,
                       size_t records_per_node) {
  BenchResult result;
  result.name = name;
  workload::ScenarioOptions options;
  options.topology.kind = workload::TopologySpec::Kind::kTree;
  options.topology.nodes = nodes;
  options.records_per_node = records_per_node;
  auto system = workload::BuildScenario(options);
  if (!system.ok()) return result;
  auto churn =
      workload::PlanCrashRestart(*system, 0, workload::ChurnPlanOptions{});
  if (!churn.ok()) return result;

  std::string root = FreshDir(name);
  net::SimRuntime rt;
  core::Session::Options session_options;
  session_options.storage_root = root;
  session_options.sync = storage::SyncMode::kNoSync;
  core::Session session(*system, &rt, session_options);
  if (!session.RunDiscovery().ok()) return result;
  ScopedLogCapture quiet;  // Drop-to-crashed-peer warnings are expected.
  auto start = Clock::now();
  Status run = session.RunUpdateWithChurn(*churn);
  double wall_ms = MsSince(start);
  if (!run.ok()) return result;
  uint64_t inserted = 0;
  for (size_t n = 0; n < session.peer_count(); ++n) {
    inserted += session.peer(n).update().stats().tuples_inserted;
  }
  result.metrics = {
      {"wall_ms", wall_ms},
      {"sim_ms", static_cast<double>(rt.NowMicros()) / 1000.0},
      {"messages", static_cast<double>(rt.stats().total_messages())},
      {"dropped", static_cast<double>(rt.dropped_count())},
      {"tuples_inserted", static_cast<double>(inserted)},
      {"all_closed", session.AllClosed() ? 1.0 : 0.0},
  };
  fs::remove_all(root);
  return result;
}

BenchResult Best(BenchResult a, BenchResult b) {
  if (a.metrics.empty()) return b;
  return a.Metric("wall_ms") <= b.Metric("wall_ms") ? a : b;
}

bool WriteJson(const std::string& path,
               const std::vector<BenchResult>& results, int repeat) {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "{\n  \"suite\": \"p2pdb_recovery\",\n  \"repeat\": " << repeat
      << ",\n  \"full_scale\": " << (FullScale() ? "true" : "false")
      << ",\n  \"benches\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    out << "    {\n      \"name\": \"" << results[i].name << "\"";
    for (const auto& [key, value] : results[i].metrics) {
      out << ",\n      \"" << key << "\": " << value;
    }
    out << "\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  return !out.fail();
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_recovery.json";
  std::string filter;
  int repeat = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--filter") == 0 && i + 1 < argc) {
      filter = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_recovery [--out FILE] [--repeat N] "
                   "[--filter SUBSTR]\n");
      return 2;
    }
  }

  const size_t small = FullScale() ? 5'000 : 1'000;
  const size_t large = FullScale() ? 50'000 : 10'000;
  using Maker = std::function<BenchResult()>;
  std::vector<std::pair<std::string, Maker>> cases = {
      {"wal_append_nosync",
       [&] {
         return WalAppendBench("wal_append_nosync", storage::SyncMode::kNoSync,
                               large / 10, 10);
       }},
      {"wal_append_sync",
       [&] {
         // fsync-bound: keep the record count small even at full scale.
         return WalAppendBench("wal_append_sync", storage::SyncMode::kSync, 200,
                               10);
       }},
      {"recover_small",
       [&] { return RecoveryBench("recover_small", small, 100, 10, false); }},
      {"recover_large",
       [&] { return RecoveryBench("recover_large", large, 1'000, 10, false); }},
      {"restart_small",
       [&] { return RecoveryBench("restart_small", small, 100, 10, true); }},
      {"restart_large",
       [&] { return RecoveryBench("restart_large", large, 1'000, 10, true); }},
      {"churn_tree12",
       [&] { return ChurnBench("churn_tree12", 12, FullScale() ? 200 : 50); }},
  };

  PrintHeader("bench_recovery: log append / recovery / crash-restart suite");
  std::printf("%-22s %10s %14s %14s\n", "bench", "wall_ms", "tuples",
              "tuples/s");

  std::vector<BenchResult> results;
  for (const auto& [name, make] : cases) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    BenchResult best;
    for (int r = 0; r < repeat; ++r) {
      BenchResult run = make();
      if (run.metrics.empty()) {
        std::fprintf(stderr, "error: bench %s failed\n", name.c_str());
        return 1;
      }
      best = Best(std::move(best), std::move(run));
    }
    double tuples = best.Metric("tuples") + best.Metric("tuples_recovered") +
                    best.Metric("tuples_inserted");
    double rate = best.Metric("tuples_per_sec") +
                  best.Metric("recover_tuples_per_sec");
    std::printf("%-22s %10.2f %14.0f %14.0f\n", best.name.c_str(),
                best.Metric("wall_ms"), tuples, rate);
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
