// Whole-file reads and writes that report I/O errors.
#ifndef P2PDB_UTIL_FILE_UTIL_H_
#define P2PDB_UTIL_FILE_UTIL_H_

#include <string>

#include "src/util/status.h"

namespace p2pdb {

/// Replaces `*out` (a std::string or std::vector<uint8_t>) with the file at
/// `path`. A missing file is NotFound; any other failure to open or read it
/// is Internal, so a read that fails part-way never passes for its end.
template <class Bytes>
Status ReadFile(const std::string& path, Bytes* out);

/// Replaces the file at `path` (created 0644 when missing) with `bytes` (a
/// std::string or std::vector<uint8_t>). A failure to open, write or close
/// it is Internal and names errno, so a full disk never passes for a written
/// file.
template <class Bytes>
Status WriteFile(const std::string& path, const Bytes& bytes);

}  // namespace p2pdb

#endif  // P2PDB_UTIL_FILE_UTIL_H_
