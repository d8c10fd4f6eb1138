// Checkpoints: full database snapshots written atomically into a peer's
// storage directory. A checkpoint uses the relational/snapshot byte format
// (magic "P2DB") and is published by write-to-temp + fsync + rename, so a
// crash mid-checkpoint leaves the previous checkpoint intact. After a
// checkpoint the WAL records it covers are redundant and can be truncated.
#ifndef P2PDB_STORAGE_CHECKPOINT_H_
#define P2PDB_STORAGE_CHECKPOINT_H_

#include <string>

#include "src/relational/database.h"
#include "src/storage/wal.h"
#include "src/util/status.h"

namespace p2pdb::storage {

/// The checkpoint file inside a peer's storage directory.
std::string CheckpointPath(const std::string& dir);

bool CheckpointExists(const std::string& dir);

/// Atomically replaces the checkpoint in `dir` with a snapshot of `db`:
/// serializes to "checkpoint.tmp", renames it over "checkpoint.p2db". Under
/// kSync it fsyncs the file before the rename and the directory after it, so
/// the rename itself is durable; under kNoSync it only flushes to the OS,
/// which still survives a process crash.
Status SaveCheckpoint(const rel::Database& db, const std::string& dir,
                      SyncMode sync);

/// Loads the checkpoint in `dir`; NotFound when none has been written yet.
Result<rel::Database> LoadCheckpoint(const std::string& dir);

}  // namespace p2pdb::storage

#endif  // P2PDB_STORAGE_CHECKPOINT_H_
