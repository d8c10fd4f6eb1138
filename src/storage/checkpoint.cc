#include "src/storage/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/relational/snapshot.h"
#include "src/storage/wal.h"

namespace p2pdb::storage {

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.p2db";
}

bool CheckpointExists(const std::string& dir) {
  return ::access(CheckpointPath(dir).c_str(), F_OK) == 0;
}

Status SaveCheckpoint(const rel::Database& db, const std::string& dir,
                      SyncMode sync) {
  const std::string tmp = dir + "/checkpoint.tmp";
  std::vector<uint8_t> bytes = rel::SerializeDatabase(db);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + tmp);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool flushed = std::fflush(f) == 0 &&
                 (sync == SyncMode::kNoSync || ::fsync(::fileno(f)) == 0);
  int close_rc = std::fclose(f);
  if (written != bytes.size() || !flushed || close_rc != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), CheckpointPath(dir).c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot publish checkpoint in " + dir + ": " +
                            std::strerror(errno));
  }
  return sync == SyncMode::kSync ? FsyncDirectory(dir) : Status::OK();
}

Result<rel::Database> LoadCheckpoint(const std::string& dir) {
  return rel::LoadDatabase(CheckpointPath(dir));
}

}  // namespace p2pdb::storage
