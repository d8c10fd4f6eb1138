#include "src/storage/storage_manager.h"

#include <chrono>
#include <filesystem>
#include <optional>

#include "src/obs/metrics.h"
#include "src/relational/codec.h"
#include "src/storage/checkpoint.h"
#include "src/util/serde.h"

namespace p2pdb::storage {

namespace {
/// Record kind tag, first byte of every WAL payload.
constexpr uint8_t kDeltaRecord = 1;
/// A dynamic rule change (addLink/deleteLink); the rest of the payload is the
/// core layer's opaque encoding.
constexpr uint8_t kRuleChangeRecord = 2;

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

std::vector<uint8_t> EncodeRuleChange(const std::vector<uint8_t>& record) {
  std::vector<uint8_t> payload;
  payload.reserve(1 + record.size());
  payload.push_back(kRuleChangeRecord);
  payload.insert(payload.end(), record.begin(), record.end());
  return payload;
}

/// A rule-change record's opaque body, or nullopt for any other kind.
std::optional<std::vector<uint8_t>> RuleChangeBody(
    const std::vector<uint8_t>& payload) {
  if (payload.empty() || payload[0] != kRuleChangeRecord) return std::nullopt;
  return std::vector<uint8_t>(payload.begin() + 1, payload.end());
}
}  // namespace

std::vector<uint8_t> EncodeDelta(const DeltaMap& delta) {
  Writer w;
  w.PutU8(kDeltaRecord);
  w.PutVarint(delta.size());
  for (const auto& [relation, tuples] : delta) {
    w.PutString(relation);
    rel::EncodeTupleSet(tuples, &w);
  }
  return w.bytes();
}

Result<DeltaMap> DecodeDelta(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  auto kind = r.GetU8();
  if (!kind.ok()) return kind.status();
  if (*kind != kDeltaRecord) {
    return Status::ParseError("unknown WAL record kind " +
                              std::to_string(*kind));
  }
  auto relation_count = r.GetVarint();
  if (!relation_count.ok()) return relation_count.status();
  DeltaMap delta;
  for (uint64_t i = 0; i < *relation_count; ++i) {
    auto relation = r.GetString();
    if (!relation.ok()) return relation.status();
    auto tuples = rel::DecodeTupleSet(&r);
    if (!tuples.ok()) return tuples.status();
    delta[std::move(*relation)] = std::move(*tuples);
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in WAL record");
  return delta;
}

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const StorageOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create storage directory " + options.dir +
                            ": " + ec.message());
  }
  std::vector<std::vector<uint8_t>> existing;
  auto wal = WalWriter::Open(WalPath(options.dir), options.sync,
                             options.group_commit, &existing);
  if (!wal.ok()) return wal.status();
  // Re-learn the retained rule changes from the records Open just scanned,
  // so a fresh process keeps carrying them across checkpoints.
  std::vector<std::vector<uint8_t>> rule_changes;
  for (const std::vector<uint8_t>& payload : existing) {
    if (auto body = RuleChangeBody(payload)) {
      rule_changes.push_back(std::move(*body));
    }
  }
  auto manager = std::unique_ptr<StorageManager>(
      new StorageManager(options, std::move(*wal), std::move(rule_changes)));
  // Records that survived a previous process are of unknown age; restart the
  // interval clock at open so they checkpoint within one interval from now.
  if (manager->wal_->size_bytes() > 0) {
    manager->wal_dirty_since_micros_ = manager->NowMicros();
  }
  return manager;
}

uint64_t StorageManager::NowMicros() const {
  if (options_.now_micros) return options_.now_micros();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status StorageManager::LogDelta(const DeltaMap& delta) {
  if (delta.empty()) return Status::OK();
  P2PDB_RETURN_IF_ERROR(wal_->Append(EncodeDelta(delta)));
  if (wal_dirty_since_micros_ == 0) wal_dirty_since_micros_ = NowMicros();
  return Status::OK();
}

Status StorageManager::LogRuleChange(const std::vector<uint8_t>& record) {
  P2PDB_RETURN_IF_ERROR(wal_->Append(EncodeRuleChange(record)));
  rule_changes_.push_back(record);
  if (wal_dirty_since_micros_ == 0) wal_dirty_since_micros_ = NowMicros();
  return Status::OK();
}

Status StorageManager::ResetRuleChanges(
    std::vector<std::vector<uint8_t>> records) {
  // Takes effect in the WAL at the next Checkpoint (which rewrites the
  // retained history after truncation); until then the uncompacted records
  // already on disk remain authoritative and replay to the same rule set.
  rule_changes_ = std::move(records);
  return Status::OK();
}

Status StorageManager::EnsureBase(const rel::Database& db) {
  if (CheckpointExists(options_.dir)) return Status::OK();
  return Checkpoint(db);
}

bool StorageManager::HasBase() const { return CheckpointExists(options_.dir); }

Status StorageManager::MaybeCheckpoint(const rel::Database& db) {
  if (wal_->size_bytes() >= options_.checkpoint_wal_bytes) {
    return Checkpoint(db);
  }
  // Time trigger: the log is small but its oldest record has aged past the
  // interval, so fold it in anyway (bounded recovery replay for peers whose
  // write rate never reaches the size threshold).
  if (options_.checkpoint_interval.count() > 0 &&
      wal_dirty_since_micros_ != 0 &&
      NowMicros() - wal_dirty_since_micros_ >=
          static_cast<uint64_t>(options_.checkpoint_interval.count())) {
    return Checkpoint(db);
  }
  return Status::OK();
}

Status StorageManager::Checkpoint(const rel::Database& db) {
  auto start = std::chrono::steady_clock::now();
  P2PDB_RETURN_IF_ERROR(SaveCheckpoint(db, options_.dir, options_.sync));
  static obs::Histogram* duration =
      obs::Registry::Global().GetHistogram("storage.checkpoint_micros");
  duration->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  ++checkpoints_taken_;
  // The snapshot holds only the database; the rule-change history rides into
  // the fresh log atomically with the truncation (Reset publishes by rename,
  // so no crash window can lose the records).
  std::vector<std::vector<uint8_t>> retained;
  retained.reserve(rule_changes_.size());
  for (const std::vector<uint8_t>& record : rule_changes_) {
    retained.push_back(EncodeRuleChange(record));
  }
  P2PDB_RETURN_IF_ERROR(wal_->Reset(retained));
  // The checkpoint covers everything the interval clock was timing; the
  // re-appended rule history is already durable in the fresh log, so the
  // clock restarts only when the next record lands.
  wal_dirty_since_micros_ = 0;
  return Status::OK();
}

Result<rel::Database> StorageManager::Recover(RecoveryInfo* info) {
  RecoveryInfo local;
  RecoveryInfo* out = info != nullptr ? info : &local;
  *out = RecoveryInfo{};

  auto checkpoint = LoadCheckpoint(options_.dir);
  if (!checkpoint.ok()) return checkpoint.status();
  out->had_checkpoint = true;
  rel::Database db = std::move(*checkpoint);

  auto wal = ReadWalFile(WalPath(options_.dir));
  if (!wal.ok()) return wal.status();
  out->wal_bytes_scanned = wal->valid_bytes;
  out->wal_tail_truncated = wal->tail_corrupt;
  for (const std::vector<uint8_t>& payload : wal->records) {
    if (auto body = RuleChangeBody(payload)) {
      out->rule_changes.push_back(std::move(*body));
      ++out->wal_records_replayed;
      continue;
    }
    auto delta = DecodeDelta(payload);
    if (!delta.ok()) return delta.status();
    for (const auto& [relation, tuples] : *delta) {
      auto target = db.GetMutable(relation);
      if (!target.ok()) {
        return Status::Internal("WAL delta for relation '" + relation +
                                "' absent from the checkpoint");
      }
      for (const rel::Tuple& t : tuples) {
        auto inserted = (*target)->Insert(t);
        if (!inserted.ok()) return inserted.status();
      }
    }
    ++out->wal_records_replayed;
  }
  out->tuples_recovered = db.TotalTuples();
  return db;
}

}  // namespace p2pdb::storage
