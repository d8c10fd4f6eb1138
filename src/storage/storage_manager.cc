#include "src/storage/storage_manager.h"

#include <filesystem>

#include "src/relational/codec.h"
#include "src/util/serde.h"

namespace p2pdb::storage {

namespace {
/// Record kind tag, first byte of every payload.
constexpr uint8_t kDeltaRecord = 1;
/// A dynamic rule change (addLink/deleteLink); the rest of the payload is the
/// core layer's opaque encoding.
constexpr uint8_t kRuleChangeRecord = 2;
constexpr uint8_t kBaseRecord = 3;

std::vector<uint8_t> EncodeBase(const rel::Database& db) {
  Writer w;
  w.PutU8(kBaseRecord);
  w.PutVarint(db.relations().size());
  for (const auto& [name, relation] : db.relations()) {
    WriteFields(relation.schema(), &w);
    rel::EncodeTupleRange(relation.View(), 0, &w);
  }
  return w.TakeBytes();
}

/// Reads one tuple list and appends it to `relation` in order, counting the
/// entries read into `*replayed`.
Status ReplayTuples(Reader* r, rel::Relation* relation, uint64_t* replayed) {
  auto rows = rel::DecodeTupleList(r);
  if (!rows.ok()) return rows.status();
  *replayed += rows->size();
  for (rel::Row row : *rows) {
    P2PDB_RETURN_IF_ERROR(relation->Insert(row).status());
  }
  return Status::OK();
}

/// Creates the relations a base record's body lists, with their entries.
Status ReplayBase(Reader* r, rel::Database* db, uint64_t* replayed) {
  auto relation_count = r->GetVarint();
  if (!relation_count.ok()) return relation_count.status();
  for (uint64_t i = 0; i < *relation_count; ++i) {
    auto schema = ReadFields<rel::RelationSchema>(r);
    if (!schema.ok()) return schema.status();
    P2PDB_RETURN_IF_ERROR(db->CreateRelation(*schema));
    P2PDB_RETURN_IF_ERROR(
        ReplayTuples(r, *db->GetMutable(schema->name()), replayed));
  }
  return r->ExpectEnd();
}

/// Appends a delta record body's entries to the relations it names.
Status ReplayDelta(Reader* r, rel::Database* db, uint64_t* replayed) {
  auto relation_count = r->GetVarint();
  if (!relation_count.ok()) return relation_count.status();
  for (uint64_t i = 0; i < *relation_count; ++i) {
    auto name = r->GetString();
    if (!name.ok()) return name.status();
    auto target = db->GetMutable(*name);
    if (!target.ok()) {
      return Status::ParseError("delta for relation '" + *name +
                                "' absent from the base");
    }
    P2PDB_RETURN_IF_ERROR(ReplayTuples(r, *target, replayed));
  }
  return r->ExpectEnd();
}
}  // namespace

Result<std::unique_ptr<StorageManager>> StorageManager::Open(
    const StorageOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create storage directory " + options.dir +
                            ": " + ec.message());
  }
  const std::string path = options.dir + "/wal.log";
  auto wal = WalWriter::Open(path, options.sync, options.group_commit);
  if (!wal.ok()) return wal.status();
  auto contents = ReadWalFile(path);
  if (!contents.ok()) return contents.status();
  const bool has_base = !contents->records.empty() &&
                        !contents->records[0].empty() &&
                        contents->records[0][0] == kBaseRecord;
  return std::unique_ptr<StorageManager>(
      new StorageManager(options, std::move(*wal), has_base));
}

Status StorageManager::LogDelta(const rel::Database& db,
                                const std::map<std::string, size_t>& starts) {
  size_t grown = 0;
  for (const auto& [relation, start] : starts) {
    if (start < db.View(relation).size()) ++grown;
  }
  if (grown == 0) return Status::OK();
  Writer w;
  w.PutU8(kDeltaRecord);
  w.PutVarint(grown);
  for (const auto& [relation, start] : starts) {
    const rel::LogView log = db.View(relation);
    if (start >= log.size()) continue;
    w.PutString(relation);
    rel::EncodeTupleRange(log, start, &w);
  }
  return wal_->Append(w.bytes());
}

Status StorageManager::LogRuleChange(const std::vector<uint8_t>& record) {
  std::vector<uint8_t> payload;
  payload.reserve(1 + record.size());
  payload.push_back(kRuleChangeRecord);
  payload.insert(payload.end(), record.begin(), record.end());
  return wal_->Append(payload);
}

Status StorageManager::EnsureBase(const rel::Database& db) {
  if (has_base_) return Status::OK();
  P2PDB_RETURN_IF_ERROR(wal_->Append(EncodeBase(db)));
  has_base_ = true;
  // Nothing can be recovered without the base, so an open group-commit
  // window must not hold it back from stable media.
  if (options_.sync == SyncMode::kSync && wal_->pending_appends() > 0) {
    return wal_->Sync();
  }
  return Status::OK();
}

Result<rel::Database> StorageManager::Recover(RecoveryInfo* info) {
  RecoveryInfo local;
  RecoveryInfo* out = info != nullptr ? info : &local;
  *out = RecoveryInfo{};

  const std::string& path = wal_->path();
  auto wal = ReadWalFile(path);
  if (!wal.ok()) return wal.status();
  if (wal->records.empty()) return Status::NotFound("no base in " + path);
  out->wal_bytes_scanned = wal->valid_bytes;
  out->wal_tail_truncated = wal->tail_corrupt;
  rel::Database db;
  for (const std::vector<uint8_t>& payload : wal->records) {
    Reader r(payload);
    auto kind = r.GetU8();
    if (!kind.ok()) return kind.status();
    const bool first = out->wal_records_replayed == 0;
    if (first != (*kind == kBaseRecord)) {
      return Status::ParseError(first ? path + " does not start with a base"
                                      : path + " holds a second base");
    }
    switch (*kind) {
      case kBaseRecord:
        P2PDB_RETURN_IF_ERROR(ReplayBase(&r, &db, &out->tuples_recovered));
        break;
      case kDeltaRecord:
        P2PDB_RETURN_IF_ERROR(ReplayDelta(&r, &db, &out->tuples_recovered));
        break;
      case kRuleChangeRecord:
        out->rule_changes.emplace_back(payload.begin() + 1, payload.end());
        break;
      default:
        return Status::ParseError("unknown WAL record kind " +
                                  std::to_string(*kind));
    }
    ++out->wal_records_replayed;
  }
  return db;
}

}  // namespace p2pdb::storage
