// Database snapshots: serialize a node's local database to bytes or a file
// and load it back. Used to persist the materialized instance after an update
// (the point of the paper's update algorithm is that the materialized data is
// worth keeping), and as the storage half of the Wrapper component in the
// Figure 2 architecture.
#ifndef P2PDB_RELATIONAL_SNAPSHOT_H_
#define P2PDB_RELATIONAL_SNAPSHOT_H_

#include <string>
#include <vector>

#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Serializes the full database (schemas and tuples) into a byte buffer.
/// Format: magic "P2DB", format version, then a sorted database image
/// (codec.h). Labeled nulls keep their identifiers.
std::vector<uint8_t> SerializeDatabase(const Database& db);

/// Inverse of SerializeDatabase; validates magic, version and sort order.
Result<Database> DeserializeDatabase(const std::vector<uint8_t>& bytes);

/// Writes/reads a snapshot file.
Status SaveDatabase(const Database& db, const std::string& path);
Result<Database> LoadDatabase(const std::string& path);

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_SNAPSHOT_H_
