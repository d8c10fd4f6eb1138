// Write-ahead log: an append-only file of CRC-checked, length-prefixed binary
// records. The peer's storage manager appends one record per applied update
// delta; on recovery the log is replayed on top of the last checkpoint.
//
// On-disk layout:
//   header:  u32 magic "P2WL", u32 format version
//   record:  u32 payload length, u32 CRC-32 of the payload, payload bytes
//
// A crash can leave a torn tail (a partially written record). Readers stop at
// the first incomplete or CRC-mismatching record and report the clean prefix;
// WalWriter::Open truncates that torn tail before appending, so a log never
// accumulates garbage in the middle.
#ifndef P2PDB_STORAGE_WAL_H_
#define P2PDB_STORAGE_WAL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/util/crc32.h"
#include "src/util/status.h"

namespace p2pdb::storage {

/// Whether appends are flushed to the OS only (fast, loses the tail on power
/// failure) or fsync'd to stable media (durable, slow).
enum class SyncMode { kNoSync, kSync };

// Record framing uses the tree-wide CRC-32 (IEEE 802.3); re-exported because
// storage callers historically found it here.
using p2pdb::Crc32;

/// Group commit for `kSync` mode: instead of fsync'ing every append, appends
/// are coalesced and one fsync covers the whole batch once `max_pending`
/// records accumulate or an append finds `window` elapsed since the batch
/// opened. Records in the open window are flushed to the OS (they survive a
/// process crash) but reach stable media only at the NEXT append, Sync(),
/// Reset(), or close — there is no background flusher, so an idle writer's
/// tail batch stays OS-buffered indefinitely (a power failure can lose it).
/// Callers needing a hard bound call Sync() at their commit points. A zero
/// window keeps the classic fsync-per-append behaviour.
struct GroupCommitOptions {
  std::chrono::microseconds window{0};
  uint64_t max_pending = 64;
};

/// Result of scanning a WAL file: every intact record in order, the length of
/// the clean prefix, and whether a torn/corrupt tail was dropped.
struct WalContents {
  std::vector<std::vector<uint8_t>> records;
  uint64_t valid_bytes = 0;
  bool tail_corrupt = false;
};

/// Reads every intact record of a WAL file. Missing file => NotFound; a file
/// too short to hold the header or with a foreign magic => ParseError. A torn
/// or corrupt tail is tolerated: replay stops there and `tail_corrupt` is set.
Result<WalContents> ReadWalFile(const std::string& path);

/// fsyncs a directory so a just-renamed file inside it survives power loss.
Status FsyncDirectory(const std::string& dir);

/// Appends records to a WAL file. Open() creates the file (with header) when
/// missing and truncates any torn tail of an existing log before appending.
class WalWriter {
 public:
  /// `existing_records`, when given, receives every intact record already in
  /// the log — Open scans the file anyway to find the clean prefix, so
  /// callers that need the contents (e.g. to reload retained rule changes)
  /// avoid a second full read.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, SyncMode sync,
      GroupCommitOptions group_commit = {},
      std::vector<std::vector<uint8_t>>* existing_records = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record. Always flushed to the OS; under kSync it is fsync'd
  /// immediately, or at the next group-commit boundary when a window is set.
  Status Append(const std::vector<uint8_t>& payload);

  /// Forces an fsync (of any pending group-commit batch too) regardless of
  /// the sync mode.
  Status Sync();

  /// Truncates the log back to a fresh state holding exactly `retained` (by
  /// default none); used after a checkpoint has made the logged deltas
  /// redundant while rule-change records must survive. Atomic: the fresh log
  /// is built in a temp file and renamed over the old one, so a crash at any
  /// point leaves either the full old log or the full new one — never a log
  /// missing its retained records. Under kSync the temp file is fsync'd
  /// before the rename and the directory after it; kNoSync skips both.
  Status Reset(const std::vector<std::vector<uint8_t>>& retained = {});

  /// Current file size in bytes (header + intact records).
  uint64_t size_bytes() const { return size_bytes_; }
  /// Records appended through this writer (excludes pre-existing ones).
  uint64_t appended_records() const { return appended_records_; }
  /// fsyncs issued by this writer, Reset's included (group commit makes
  /// this < appended).
  uint64_t syncs_performed() const { return syncs_performed_; }
  /// Appends flushed to the OS but not yet covered by an fsync.
  uint64_t pending_appends() const { return pending_appends_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, SyncMode sync, GroupCommitOptions group_commit,
            std::FILE* file, uint64_t size_bytes)
      : path_(std::move(path)), sync_(sync), group_commit_(group_commit),
        file_(file), size_bytes_(size_bytes) {}

  /// fsyncs and resets the group-commit window bookkeeping.
  Status SyncNow();

  std::string path_;
  SyncMode sync_;
  GroupCommitOptions group_commit_;
  std::FILE* file_ = nullptr;
  uint64_t size_bytes_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t syncs_performed_ = 0;
  uint64_t pending_appends_ = 0;
  std::chrono::steady_clock::time_point window_start_{};
};

}  // namespace p2pdb::storage

#endif  // P2PDB_STORAGE_WAL_H_
