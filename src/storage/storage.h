// Storage: the durability hook a peer drives. The peer records its database
// as a base state when storage is attached, then reports every update delta
// its chase applies and every dynamic rule change; Recover() rebuilds the
// last durable state so a crashed peer can rejoin the network with its data
// instead of starting empty — the durability backbone of the paper's
// robustness claim under peer churn.
#ifndef P2PDB_STORAGE_STORAGE_H_
#define P2PDB_STORAGE_STORAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::storage {

/// What Recover() rebuilt, for reporting and benchmarks.
struct RecoveryInfo {
  /// Records replayed, the base record included.
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_scanned = 0;
  bool wal_tail_truncated = false;
  /// Entries read from the base and delta records: the database's tuple
  /// count, unless some entry was logged twice.
  uint64_t tuples_recovered = 0;
  /// Rule-change records (see Storage::LogRuleChange), oldest first. Opaque
  /// to the storage layer; core::wire::RuleChangeRecord decodes them.
  std::vector<std::vector<uint8_t>> rule_changes;
};

class Storage {
 public:
  virtual ~Storage() = default;

  /// Durably records one applied chase step: entries [start, size) of each
  /// relation of `db` named in `starts`, in log order. Writes nothing when
  /// no named relation grew.
  virtual Status LogDelta(const rel::Database& db,
                          const std::map<std::string, size_t>& starts) = 0;

  /// Durably records one dynamic rule change (addLink/deleteLink). The blob
  /// is opaque here — the core layer encodes it — and Recover() returns
  /// every change ever logged, in order, so a restarted head re-learns
  /// mid-session rule changes without the change driver re-delivering them.
  virtual Status LogRuleChange(const std::vector<uint8_t>& record) = 0;

  /// Establishes the durable base state: records `db` (schemas and entries
  /// in log order) iff no base exists yet. Called when storage is attached
  /// to a peer, so that replay always has the schemas and seed data to
  /// apply deltas onto. Under a syncing backend the base is on stable media
  /// when this returns.
  virtual Status EnsureBase(const rel::Database& db) = 0;

  /// True when a durable base state already exists — how a booting daemon
  /// decides between a fresh start (seed the base from its system file) and
  /// recovery (a re-exec'd process reopening the directory it crashed with).
  virtual bool HasBase() const = 0;

  /// Rebuilds the last durable database state by replaying the base and
  /// every later delta in order into fresh relations, so each relation's log
  /// holds its entries in the order they were logged. Writes nothing.
  virtual Result<rel::Database> Recover(RecoveryInfo* info) = 0;
};

}  // namespace p2pdb::storage

#endif  // P2PDB_STORAGE_STORAGE_H_
