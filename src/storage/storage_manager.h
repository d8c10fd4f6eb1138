// StorageManager: the durable Storage implementation — one append-only log
// per peer, <dir>/wal.log (framing in wal.h), holding three kinds of record:
//
//   base         written once, first, by EnsureBase: each relation's name,
//                attributes and entries in log order, in one record so the
//                base is atomic
//   delta        one per applied chase step: entries [start, size) of each
//                relation the step appended to, in log order
//   rule change  one per dynamic rule change (addLink/deleteLink), opaque
//
// A relation is a prefix of its append-only log, so the base plus the deltas
// after it is the database. Recover replays every record in order into fresh
// relations; a restarted peer's logs equal the crashed peer's entry for
// entry. Nothing is rewritten, and recovery writes nothing.
#ifndef P2PDB_STORAGE_STORAGE_MANAGER_H_
#define P2PDB_STORAGE_STORAGE_MANAGER_H_

#include <memory>
#include <string>

#include "src/storage/storage.h"
#include "src/storage/wal.h"

namespace p2pdb::storage {

struct StorageOptions {
  /// Per-peer directory; created (with parents) by Open when missing.
  std::string dir;
  /// kSync fsyncs every append and is the durable default; kNoSync only
  /// writes to the OS and never fsyncs — benches use it so measurements are
  /// not fsync-bound.
  SyncMode sync = SyncMode::kSync;
  /// Group commit for kSync (see GroupCommitOptions): a nonzero window
  /// coalesces appends into one fsync per window/batch. The base record is
  /// synced before EnsureBase returns regardless.
  GroupCommitOptions group_commit;
};

class StorageManager : public Storage {
 public:
  /// Opens (or creates) the storage directory and its log; an existing log
  /// has any torn tail truncated before new appends. A log of another format
  /// version fails as Unsupported.
  static Result<std::unique_ptr<StorageManager>> Open(
      const StorageOptions& options);

  Status LogDelta(const rel::Database& db,
                  const std::map<std::string, size_t>& starts) override;
  Status LogRuleChange(const std::vector<uint8_t>& record) override;
  Status EnsureBase(const rel::Database& db) override;
  /// True when the log's first record is a base record.
  bool HasBase() const override { return has_base_; }
  Result<rel::Database> Recover(RecoveryInfo* info) override;

  uint64_t wal_bytes() const { return wal_->size_bytes(); }
  uint64_t wal_syncs() const { return wal_->syncs_performed(); }

 private:
  StorageManager(StorageOptions options, std::unique_ptr<WalWriter> wal,
                 bool has_base)
      : options_(std::move(options)),
        wal_(std::move(wal)),
        has_base_(has_base) {}

  StorageOptions options_;
  std::unique_ptr<WalWriter> wal_;
  bool has_base_;
};

}  // namespace p2pdb::storage

#endif  // P2PDB_STORAGE_STORAGE_MANAGER_H_
