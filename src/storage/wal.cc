#include "src/storage/wal.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>

#include "src/obs/metrics.h"
#include "src/util/crc32.h"
#include "src/util/file_util.h"
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
// Version 2 logs hold a peer's whole durable state. Version 1 logs held only
// the deltas after a separate checkpoint file and cannot be read as one.
constexpr uint32_t kWalVersion = 2;
constexpr size_t kHeaderBytes = 8;        // magic + version
constexpr size_t kRecordHeaderBytes = 8;  // length + crc

std::vector<uint8_t> EncodeHeader() {
  Writer w;
  w.PutU32(kWalMagic);
  w.PutU32(kWalVersion);
  return w.bytes();
}

/// fsyncs the directory holding `path`, so a file just created there
/// survives power loss.
Status FsyncParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
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

}  // namespace

Result<WalContents> ReadWalFile(const std::string& path) {
  WalContents out;
  P2PDB_RETURN_IF_ERROR(ReadFile(path, &out.bytes));
  const std::vector<uint8_t>& bytes = out.bytes;
  if (bytes.size() < kHeaderBytes) {
    // A crash during WAL creation can leave a partial header: torn tail at
    // offset zero, not a foreign file. No records survive it.
    out.tail_corrupt = !bytes.empty();
    return out;
  }
  Reader header(bytes.data(), kHeaderBytes);
  if (*header.GetU32() != kWalMagic) {
    return Status::ParseError(path + " is not a p2pdb WAL");
  }
  uint32_t version = *header.GetU32();
  if (version != kWalVersion) {
    return Status::Unsupported("WAL format version " +
                               std::to_string(version) + " in " + path);
  }

  size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderBytes) break;  // Torn record header.
    Reader r(bytes.data() + pos, kRecordHeaderBytes);
    uint32_t length = *r.GetU32();
    uint32_t crc = *r.GetU32();
    if (bytes.size() - pos - kRecordHeaderBytes < length) break;  // Torn body.
    const uint8_t* payload = bytes.data() + pos + kRecordHeaderBytes;
    if (Crc32(payload, length) != crc) break;  // Corrupt (torn write).
    out.records.emplace_back(payload, length);
    pos += kRecordHeaderBytes + length;
  }
  out.valid_bytes = pos;
  out.tail_corrupt = pos < bytes.size();
  return out;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   SyncMode sync,
                                                   WalContents* existing) {
  auto read = ReadWalFile(path);
  if (!read.ok() && read.status().code() != StatusCode::kNotFound) {
    return read.status();  // Foreign, other-version or unreadable: keep out.
  }
  WalContents contents = read.ok() ? std::move(*read) : WalContents();
  // Zero for a missing file or a header torn by a crash mid-creation: both
  // start a fresh log.
  const uint64_t valid_bytes = contents.valid_bytes;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  auto writer = std::unique_ptr<WalWriter>(
      new WalWriter(path, sync, fd, valid_bytes));
  if (contents.tail_corrupt &&
      ::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal("cannot truncate torn tail of " + path);
  }
  if (valid_bytes == 0) {
    P2PDB_RETURN_IF_ERROR(writer->Write(EncodeHeader(), {}));
    if (sync == SyncMode::kSync) {
      P2PDB_RETURN_IF_ERROR(writer->Fsync());
      ++writer->syncs_performed_;
      P2PDB_RETURN_IF_ERROR(FsyncParentDirectory(path));
    }
  }
  if (existing != nullptr) *existing = std::move(contents);
  return writer;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(ByteView payload) {
  if (fd_ < 0) return Status::Internal(path_ + " is not open");
  if (payload.size > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("WAL record too large for " + path_);
  }
  // A clock pair per record is cheap next to the write system call below,
  // so not gated.
  struct AppendTimer {
    uint64_t start = MonotonicMicros();
    ~AppendTimer() {
      static obs::Histogram* h =
          obs::Registry::Global().GetHistogram("wal.append_micros");
      h->Record(MonotonicMicros() - start);
    }
  } timer;
  Writer header;
  header.PutU32(static_cast<uint32_t>(payload.size));
  header.PutU32(Crc32(payload.data, payload.size));
  // Written to the OS always (the record survives a process crash); reaches
  // stable media before this returns under kSync.
  P2PDB_RETURN_IF_ERROR(Write(header.bytes(), payload));
  ++appended_records_;
  return sync_ == SyncMode::kSync ? Fsync() : Status::OK();
}

Status WalWriter::Write(ByteView head, ByteView body) {
  iovec parts[2] = {{const_cast<uint8_t*>(head.data), head.size},
                    {const_cast<uint8_t*>(body.data), body.size}};
  const size_t total = head.size + body.size;
  const ssize_t written = ::writev(fd_, parts, 2);
  if (written >= 0 && static_cast<size_t>(written) == total) {
    size_bytes_ += total;
    return Status::OK();
  }
  const std::string reason = written < 0 ? std::strerror(errno) : "short write";
  // Take back whatever part of the record landed: left in place, it would
  // end replay there and strand every later record behind it.
  if (::ftruncate(fd_, static_cast<off_t>(size_bytes_)) != 0) {
    // The torn bytes stay, so refuse every later append instead.
    ::close(fd_);
    fd_ = -1;
    return Status::Internal("cannot write to " + path_ + " (" + reason +
                            ") nor truncate the torn record: " +
                            std::strerror(errno));
  }
  return Status::Internal("cannot write to " + path_ + ": " + reason);
}

Status WalWriter::Fsync() {
  ++syncs_performed_;
  uint64_t start = MonotonicMicros();
  const bool synced = ::fsync(fd_) == 0;
  static obs::Histogram* h =
      obs::Registry::Global().GetHistogram("wal.fsync_micros");
  h->Record(MonotonicMicros() - start);
  if (!synced) {
    return Status::Internal("fsync failed for " + path_ + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace p2pdb::storage
