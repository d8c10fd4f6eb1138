// Write-ahead log: an append-only file of CRC-checked, length-prefixed binary
// records. A peer's storage manager keeps its whole durable state in one such
// log (storage_manager.h lists the record kinds); nothing in it is ever
// rewritten.
//
// On-disk layout:
//   header:  u32 magic "P2WL", u32 format version
//   record:  u32 payload length, u32 CRC-32 of the payload, payload bytes
//
// A crash can leave a torn tail (a partially written record). Readers stop at
// the first incomplete or CRC-mismatching record and report the clean prefix;
// WalWriter::Open truncates that torn tail before appending, and a failed
// append takes back its own partial bytes, so a log never accumulates garbage
// in the middle.
#ifndef P2PDB_STORAGE_WAL_H_
#define P2PDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::storage {

/// Whether appends are written to the OS only (fast, loses the tail on power
/// failure) or each fsync'd to stable media before Append returns (durable,
/// slow).
enum class SyncMode { kNoSync, kSync };

/// A WAL file as read: its bytes, every intact record in order (viewed in
/// those bytes; a move keeps the views valid, a copy would not, so there is
/// none), the clean prefix's length, and whether a torn tail was dropped.
struct WalContents {
  std::vector<uint8_t> bytes;
  std::vector<ByteView> records;
  uint64_t valid_bytes = 0;
  bool tail_corrupt = false;

  WalContents() = default;
  WalContents(WalContents&&) = default;
  WalContents& operator=(WalContents&&) = default;
};

/// Reads a WAL file once. Missing file => NotFound; a file that cannot be
/// read => Internal; a file with a foreign magic => ParseError; another
/// format version => Unsupported. A torn or corrupt tail is tolerated:
/// replay stops there and `tail_corrupt` is set.
Result<WalContents> ReadWalFile(const std::string& path);

/// Appends records to a WAL file.
class WalWriter {
 public:
  /// Opens the log at `path`, creating it (header only) when missing or when
  /// a crash tore its header; under kSync a created log's header and
  /// directory entry are fsync'd before Open returns. An existing log has
  /// any torn tail truncated before new appends. `*existing`, when given,
  /// receives the log as Open read it (empty for a log Open created).
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, SyncMode sync, WalContents* existing = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record with a single write; under kSync it is fsync'd
  /// before this returns. A failed or short write is truncated away before
  /// the error returns, so the next append lands right after the last intact
  /// record.
  Status Append(ByteView payload);

  /// Current file size in bytes (header + intact records).
  uint64_t size_bytes() const { return size_bytes_; }
  /// Records appended through this writer (excludes pre-existing ones).
  uint64_t appended_records() const { return appended_records_; }
  /// fsyncs issued by this writer, including the file and directory fsyncs
  /// that create a log under kSync.
  uint64_t syncs_performed() const { return syncs_performed_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, SyncMode sync, int fd, uint64_t size_bytes)
      : path_(std::move(path)), sync_(sync), fd_(fd), size_bytes_(size_bytes) {}

  /// Writes `head` then `body` with one writev at the end of the log; on a
  /// short or failed write, truncates the log back to size_bytes().
  Status Write(ByteView head, ByteView body);

  /// fsyncs the log, timing it into wal.fsync_micros.
  Status Fsync();

  std::string path_;
  SyncMode sync_;
  int fd_ = -1;
  uint64_t size_bytes_ = 0;
  uint64_t appended_records_ = 0;
  uint64_t syncs_performed_ = 0;
};

}  // namespace p2pdb::storage

#endif  // P2PDB_STORAGE_WAL_H_
