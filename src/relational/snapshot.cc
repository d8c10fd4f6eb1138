#include "src/relational/snapshot.h"

#include "src/relational/codec.h"
#include "src/util/file_util.h"

namespace p2pdb::rel {

namespace {
constexpr uint32_t kMagic = 0x42443250;  // "P2DB" little-endian.
constexpr uint32_t kFormatVersion = 1;
}  // namespace

std::vector<uint8_t> SerializeDatabase(const Database& db) {
  Writer w;
  w.PutU32(kMagic);
  w.PutU32(kFormatVersion);
  EncodeDatabase(db, RowOrder::kSorted, &w);
  return w.TakeBytes();
}

Result<Database> DeserializeDatabase(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  auto magic = r.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kMagic) return Status::ParseError("not a p2pdb snapshot");
  auto version = r.GetU32();
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::Unsupported("snapshot format version " +
                               std::to_string(*version));
  }
  auto db = DecodeDatabase(&r, RowOrder::kSorted);
  if (db.ok()) P2PDB_RETURN_IF_ERROR(r.ExpectEnd());
  return db;
}

Status SaveDatabase(const Database& db, const std::string& path) {
  return WriteFile(path, SerializeDatabase(db));
}

Result<Database> LoadDatabase(const std::string& path) {
  std::vector<uint8_t> bytes;
  P2PDB_RETURN_IF_ERROR(ReadFile(path, &bytes));
  return DeserializeDatabase(bytes);
}

}  // namespace p2pdb::rel
