// StorageManager: a peer's durable store, so that a crashed peer rejoins the
// network with its data instead of starting empty (the paper's robustness
// claim under churn). It is one append-only log, <dir>/wal.log (framing in
// wal.h), holding three kinds of record:
//
//   base         written once, first, by EnsureBase: a database image
//                (relational/codec.h) with each relation's entries in log
//                order, in one record so the base is atomic
//   delta        one per applied chase step: the difference of two version
//                rows (relational/database.h), each grown relation's name
//                and entries [start, size), in name order and log order
//   rule change  one per dynamic rule change (addLink/deleteLink), opaque
//
// A relation is a prefix of its append-only log, so the base plus the deltas
// after it is the database. Recover replays every record in order into fresh
// relations; a restarted peer's logs equal the crashed peer's entry for
// entry. Nothing is rewritten, and recovery writes nothing.
#ifndef P2PDB_STORAGE_STORAGE_MANAGER_H_
#define P2PDB_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/relational/database.h"
#include "src/storage/wal.h"
#include "src/util/ids.h"

namespace p2pdb::storage {

/// The storage directory of node `id` under `root`: <root>/peer<id>. A
/// session and a daemon fleet lay out their nodes' logs alike.
inline std::string PeerDir(const std::string& root, NodeId id) {
  return root + "/peer" + std::to_string(id);
}

struct StorageOptions {
  /// Per-peer directory; created (with parents) by Open when missing.
  std::string dir;
  /// kSync fsyncs every append and is the durable default; kNoSync only
  /// writes to the OS and never fsyncs — benches use it so measurements are
  /// not fsync-bound.
  SyncMode sync = SyncMode::kSync;
};

/// What Recover() rebuilt, for reporting and benchmarks.
struct RecoveryInfo {
  /// Records replayed, the base record included.
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_scanned = 0;
  bool wal_tail_truncated = false;
  /// Entries read from the base and delta records: the database's tuple
  /// count, unless some entry was logged twice.
  uint64_t tuples_recovered = 0;
  /// Rule-change records (see LogRuleChange), oldest first. Opaque to the
  /// storage layer; core::wire::RuleChangeRecord decodes them.
  std::vector<std::vector<uint8_t>> rule_changes;
};

class StorageManager {
 public:
  /// Opens (or creates) the directory and its log, reading the log once to
  /// truncate any torn tail and to answer HasBase(). A log of another format
  /// version fails as Unsupported.
  static Result<std::unique_ptr<StorageManager>> Open(
      const StorageOptions& options);

  /// Durably records one applied chase step: every entry of `db` past the
  /// version row `since` (db's row when the step began), relation by
  /// relation in name order, each in log order. Writes nothing when no
  /// relation grew.
  Status LogDelta(const rel::Database& db, const rel::Version& since);

  /// Durably records one dynamic rule change (addLink/deleteLink). The blob
  /// is opaque here — the core layer encodes it — and Recover() returns
  /// every change ever logged, in order, so a restarted head re-learns
  /// mid-session rule changes without the change driver re-delivering them.
  Status LogRuleChange(const std::vector<uint8_t>& record);

  /// Establishes the durable base state: records `db` (schemas and entries
  /// in log order) iff no base exists yet. Called when storage is attached
  /// to a peer, so that replay always has the schemas and seed data to
  /// apply deltas onto. Under kSync the base is on stable media when this
  /// returns.
  Status EnsureBase(const rel::Database& db);

  /// True when the log's first record is a base record — how a booting
  /// daemon decides between a fresh start (seed the base from its system
  /// file) and recovery (a re-exec'd process reopening its directory).
  bool HasBase() const { return has_base_; }

  /// Reads the log once and replays the base and every later delta in order
  /// into fresh relations, so each relation's log holds its entries in the
  /// order they were logged. Writes nothing.
  Result<rel::Database> Recover(RecoveryInfo* info);

  uint64_t wal_bytes() const { return wal_->size_bytes(); }
  uint64_t wal_syncs() const { return wal_->syncs_performed(); }

 private:
  StorageManager(std::unique_ptr<WalWriter> wal, bool has_base)
      : wal_(std::move(wal)), has_base_(has_base) {}

  std::unique_ptr<WalWriter> wal_;
  bool has_base_;
};

}  // namespace p2pdb::storage

#endif  // P2PDB_STORAGE_STORAGE_MANAGER_H_
