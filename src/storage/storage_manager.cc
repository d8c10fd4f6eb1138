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

/// Appends a delta record body's entries to the relations it names.
Status ReplayDelta(Reader* r, rel::Database* db, uint64_t* replayed) {
  auto relation_count = r->GetVarint();
  if (!relation_count.ok()) return relation_count.status();
  for (uint64_t i = 0; i < *relation_count; ++i) {
    auto name = r->GetString();
    if (!name.ok()) return name.status();
    const rel::RelationId target = db->Find(*name);
    if (target == rel::kNoRelation) {
      return Status::ParseError("delta for relation '" + *name +
                                "' absent from the base");
    }
    auto rows = rel::DecodeTupleList(r);
    if (!rows.ok()) return rows.status();
    *replayed += rows->size();
    for (rel::Row row : *rows) {
      P2PDB_RETURN_IF_ERROR(db->relation(target).Insert(row).status());
    }
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
  WalContents existing;
  auto wal = WalWriter::Open(options.dir + "/wal.log", options.sync, &existing);
  if (!wal.ok()) return wal.status();
  const bool has_base = !existing.records.empty() &&
                        existing.records[0].size > 0 &&
                        existing.records[0].data[0] == kBaseRecord;
  return std::unique_ptr<StorageManager>(
      new StorageManager(std::move(*wal), has_base));
}

Status StorageManager::LogDelta(const rel::Database& db,
                                const rel::Version& since) {
  const rel::RelationTable& relations = db.relations();
  size_t grown = 0;
  for (rel::RelationId id = 0; id < relations.size(); ++id) {
    if (since[id] < relations[id].size()) ++grown;
  }
  if (grown == 0) return Status::OK();
  Writer w;
  w.PutU8(kDeltaRecord);
  w.PutVarint(grown);
  for (rel::RelationId id = 0; id < relations.size(); ++id) {
    if (since[id] >= relations[id].size()) continue;
    w.PutString(relations[id].name());
    rel::EncodeTupleRange(relations[id].View(), since[id], &w);
  }
  return wal_->Append(w.bytes());
}

Status StorageManager::LogRuleChange(const std::vector<uint8_t>& record) {
  Writer w;
  w.PutU8(kRuleChangeRecord);
  w.PutRaw(record.data(), record.size());
  return wal_->Append(w.bytes());
}

Status StorageManager::EnsureBase(const rel::Database& db) {
  if (has_base_) return Status::OK();
  Writer w;
  w.PutU8(kBaseRecord);
  rel::EncodeDatabase(db, rel::RowOrder::kLog, &w);
  P2PDB_RETURN_IF_ERROR(wal_->Append(w.bytes()));
  has_base_ = true;
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
  for (ByteView payload : wal->records) {
    Reader r(payload);
    auto kind = r.GetU8();
    if (!kind.ok()) return kind.status();
    const bool first = out->wal_records_replayed == 0;
    if (first != (*kind == kBaseRecord)) {
      return Status::ParseError(first ? path + " does not start with a base"
                                      : path + " holds a second base");
    }
    switch (*kind) {
      case kBaseRecord: {
        auto base = rel::DecodeDatabase(&r, rel::RowOrder::kLog,
                                        &out->tuples_recovered);
        if (!base.ok()) return base.status();
        db = std::move(*base);
        P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
        break;
      }
      case kDeltaRecord:
        P2PDB_RETURN_IF_ERROR(ReplayDelta(&r, &db, &out->tuples_recovered));
        break;
      case kRuleChangeRecord:
        out->rule_changes.emplace_back(payload.data + 1,
                                       payload.data + payload.size);
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
