#include "src/relational/database.h"

namespace p2pdb::rel {

Status Database::CreateRelation(RelationSchema schema) {
  const std::string name = schema.name();
  auto [it, inserted] = relations_.emplace(name, Relation(std::move(schema)));
  (void)it;
  if (!inserted) return Status::AlreadyExists("relation " + name);
  return Status::OK();
}

Result<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) return Status::NotFound("relation " + name);
  return &it->second;
}

Result<Relation*> Database::GetMutable(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return Status::NotFound("relation " + name);
  return &it->second;
}

Result<bool> Database::Insert(const std::string& relation, Row row) {
  auto rel = GetMutable(relation);
  if (!rel.ok()) return rel.status();
  return (*rel)->Insert(row);
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, relation] : relations_) n += relation.size();
  return n;
}

bool Database::operator==(const Database& other) const {
  if (relations_.size() != other.relations_.size()) return false;
  for (const auto& [name, relation] : relations_) {
    const Relation* theirs = other.FindRelation(name);
    if (theirs == nullptr || !(relation.schema() == theirs->schema()) ||
        relation.size() != theirs->size()) {
      return false;
    }
    // Equal sizes of duplicate-free relations: containment one way suffices.
    const LogView mine = relation.View();
    for (size_t i = 0; i < mine.size(); ++i) {
      if (!theirs->Contains(mine.at(i))) return false;
    }
  }
  return true;
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, relation] : relations_) out += relation.ToString();
  return out;
}

}  // namespace p2pdb::rel
