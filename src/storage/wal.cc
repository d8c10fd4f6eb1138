#include "src/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/serde.h"

namespace p2pdb::storage {

namespace {

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr uint32_t kWalMagic = 0x4c573250;  // "P2WL" little-endian.
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderBytes = 8;        // magic + version
constexpr size_t kRecordHeaderBytes = 8;  // length + crc

Status FsyncFile(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    return Status::Internal("fflush failed for " + path);
  }
  if (::fsync(::fileno(f)) != 0) {
    return Status::Internal("fsync failed for " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

std::vector<uint8_t> EncodeHeader() {
  Writer w;
  w.PutU32(kWalMagic);
  w.PutU32(kWalVersion);
  return w.bytes();
}

}  // namespace

Status FsyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("cannot open directory " + dir + ": " +
                            std::strerror(errno));
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("fsync failed for directory " + dir);
  }
  return Status::OK();
}

Result<WalContents> ReadWalFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes;
  uint8_t buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);

  if (bytes.size() < kHeaderBytes) {
    // A crash during WAL creation (or Reset) can leave a partial header:
    // torn tail at offset zero, not a foreign file. No records survive it.
    WalContents out;
    out.valid_bytes = 0;
    out.tail_corrupt = !bytes.empty();
    return out;
  }
  Reader header(bytes.data(), kHeaderBytes);
  if (*header.GetU32() != kWalMagic) {
    return Status::ParseError(path + " is not a p2pdb WAL");
  }
  if (*header.GetU32() != kWalVersion) {
    return Status::Unsupported("WAL format version in " + path);
  }

  WalContents out;
  size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderBytes) break;  // Torn record header.
    Reader r(bytes.data() + pos, kRecordHeaderBytes);
    uint32_t length = *r.GetU32();
    uint32_t crc = *r.GetU32();
    if (bytes.size() - pos - kRecordHeaderBytes < length) break;  // Torn body.
    const uint8_t* payload = bytes.data() + pos + kRecordHeaderBytes;
    if (Crc32(payload, length) != crc) break;  // Corrupt (torn write).
    out.records.emplace_back(payload, payload + length);
    pos += kRecordHeaderBytes + length;
  }
  out.valid_bytes = pos;
  out.tail_corrupt = pos < bytes.size();
  return out;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, SyncMode sync, GroupCommitOptions group_commit,
    std::vector<std::vector<uint8_t>>* existing_records) {
  if (existing_records != nullptr) existing_records->clear();
  uint64_t valid_bytes = kHeaderBytes;
  auto existing = ReadWalFile(path);
  if (existing.ok() && existing->valid_bytes >= kHeaderBytes) {
    valid_bytes = existing->valid_bytes;
    if (existing_records != nullptr) {
      *existing_records = std::move(existing->records);
    }
    if (existing->tail_corrupt &&
        ::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
      return Status::Internal("cannot truncate torn tail of " + path);
    }
  } else if (existing.ok() ||
             existing.status().code() == StatusCode::kNotFound) {
    // Missing file, or a header torn by a crash mid-creation: start fresh.
    std::FILE* fresh = std::fopen(path.c_str(), "wb");
    if (fresh == nullptr) return Status::Internal("cannot create " + path);
    std::vector<uint8_t> header = EncodeHeader();
    size_t written = std::fwrite(header.data(), 1, header.size(), fresh);
    Status st = sync == SyncMode::kSync ? FsyncFile(fresh, path) : Status::OK();
    if (std::fclose(fresh) != 0 || written != header.size() || !st.ok()) {
      return Status::Internal("cannot write WAL header to " + path);
    }
  } else {
    return existing.status();  // Foreign file; refuse to append to it.
  }

  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, sync, group_commit, f, valid_bytes));
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    // Best effort: close an open group-commit window so its records are not
    // left OS-buffered only.
    if (pending_appends_ > 0) (void)SyncNow();
    std::fclose(file_);
  }
}

Status WalWriter::Append(const std::vector<uint8_t>& payload) {
  if (file_ == nullptr) return Status::Internal(path_ + " is not open");
  // Appends are already buffered writes plus an occasional fsync; a clock
  // pair per record is cheap relative to the fflush below, so not gated.
  struct AppendTimer {
    uint64_t start = MonotonicMicros();
    ~AppendTimer() {
      static obs::Histogram* h =
          obs::Registry::Global().GetHistogram("wal.append_micros");
      h->Record(MonotonicMicros() - start);
    }
  } timer;
  Writer header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));
  if (std::fwrite(header.bytes().data(), 1, header.size(), file_) !=
      header.size()) {
    return Status::Internal("short write to " + path_);
  }
  if (!payload.empty() &&
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    return Status::Internal("short write to " + path_);
  }
  // Flush to the OS always (the record survives a process crash); reach
  // stable media per the sync mode and group-commit window.
  if (std::fflush(file_) != 0) {
    return Status::Internal("fflush failed for " + path_);
  }
  size_bytes_ += header.size() + payload.size();
  ++appended_records_;
  if (sync_ == SyncMode::kSync) {
    if (group_commit_.window.count() == 0) {
      return SyncNow();
    }
    if (pending_appends_ == 0) window_start_ = std::chrono::steady_clock::now();
    ++pending_appends_;
    if (pending_appends_ >= group_commit_.max_pending ||
        std::chrono::steady_clock::now() - window_start_ >=
            group_commit_.window) {
      return SyncNow();
    }
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::Internal(path_ + " is not open");
  return SyncNow();
}

Status WalWriter::SyncNow() {
  pending_appends_ = 0;
  ++syncs_performed_;
  uint64_t start = MonotonicMicros();
  Status synced = FsyncFile(file_, path_);
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("wal.fsync_micros");
  h->Record(MonotonicMicros() - start);
  return synced;
}

Status WalWriter::Reset(const std::vector<std::vector<uint8_t>>& retained) {
  // Build the fresh log beside the old one and rename it into place, like
  // checkpoint publication: retained records are on disk before the old log
  // (still holding them) can disappear.
  const std::string tmp = path_ + ".tmp";
  std::FILE* fresh = std::fopen(tmp.c_str(), "wb");
  if (fresh == nullptr) return Status::Internal("cannot open " + tmp);
  std::vector<uint8_t> bytes = EncodeHeader();
  for (const std::vector<uint8_t>& payload : retained) {
    Writer record;
    record.PutU32(static_cast<uint32_t>(payload.size()));
    record.PutU32(Crc32(payload));
    bytes.insert(bytes.end(), record.bytes().begin(), record.bytes().end());
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), fresh);
  // Under kNoSync the fresh log, like every append, only reaches the OS.
  const bool sync = sync_ == SyncMode::kSync;
  bool flushed = std::fflush(fresh) == 0;
  if (flushed && sync) {
    ++syncs_performed_;
    flushed = ::fsync(::fileno(fresh)) == 0;
  }
  int close_rc = std::fclose(fresh);
  if (written != bytes.size() || !flushed || close_rc != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  std::fclose(file_);
  file_ = nullptr;
  Status published = Status::OK();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    published = Status::Internal("cannot publish fresh WAL at " + path_ +
                                 ": " + std::strerror(errno));
  } else {
    size_bytes_ = bytes.size();
    pending_appends_ = 0;  // The old file's open window died with it.
    size_t slash = path_.find_last_of('/');
    if (sync && slash != std::string::npos) {
      ++syncs_performed_;
      published = FsyncDirectory(path_.substr(0, slash));
    }
  }
  // Reopen whichever log now lives at path_ — the old one when the rename
  // failed, the fresh one otherwise — so a transient failure here does not
  // permanently wedge the writer (appends would fail forever, silently
  // un-logging every later delta).
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot reopen " + path_);
  }
  return published;
}

}  // namespace p2pdb::storage
