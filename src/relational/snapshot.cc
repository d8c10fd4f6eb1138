#include "src/relational/snapshot.h"

#include <cstdio>

#include "src/relational/codec.h"

namespace p2pdb::rel {

namespace {
constexpr uint32_t kMagic = 0x42443250;  // "P2DB" little-endian.
constexpr uint32_t kFormatVersion = 1;
}  // namespace

std::vector<uint8_t> SerializeDatabase(const Database& db) {
  Writer w;
  w.PutU32(kMagic);
  w.PutU32(kFormatVersion);
  w.PutVarint(db.relations().size());
  for (const auto& [name, relation] : db.relations()) {
    WriteFields(relation.schema(), &w);
    EncodeTupleList(relation.SortedTuples(), &w);  // A sorted set's bytes.
  }
  return w.bytes();
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
  auto relation_count = r.GetVarint();
  if (!relation_count.ok()) return relation_count.status();

  Database db;
  for (uint64_t i = 0; i < *relation_count; ++i) {
    auto schema = ReadFields<RelationSchema>(&r);
    if (!schema.ok()) return schema.status();
    const std::string& rel_name = schema->name();
    P2PDB_RETURN_IF_ERROR(db.CreateRelation(*schema));
    auto rows = DecodeTupleList(&r);
    if (!rows.ok()) return rows.status();
    // SerializeDatabase writes a strictly increasing list; anything else
    // (a repeat, or tuples out of order) is not a snapshot it wrote.
    for (size_t k = 1; k < rows->size(); ++k) {
      if (!((*rows)[k - 1] < (*rows)[k])) {
        return Status::ParseError("unsorted snapshot relation " + rel_name);
      }
    }
    Relation* relation = *db.GetMutable(rel_name);
    for (Row row : *rows) {
      P2PDB_RETURN_IF_ERROR(relation->Insert(row).status());
    }
  }
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in snapshot");
  return db;
}

Status SaveDatabase(const Database& db, const std::string& path) {
  std::vector<uint8_t> bytes = SerializeDatabase(db);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  int close_rc = std::fclose(f);
  if (written != bytes.size() || close_rc != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

Result<Database> LoadDatabase(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes;
  uint8_t buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);
  return DeserializeDatabase(bytes);
}

}  // namespace p2pdb::rel
