#include "src/relational/database.h"

#include <algorithm>

namespace p2pdb::rel {

namespace {
const RelationTable kNoRelations;

bool NamedBefore(const Relation& r, const std::string& name) {
  return r.name() < name;
}
}  // namespace

RelationId FindRelation(const RelationTable& table, const std::string& name) {
  auto it = std::lower_bound(table.begin(), table.end(), name, NamedBefore);
  return it == table.end() || it->name() != name
             ? kNoRelation
             : static_cast<RelationId>(it - table.begin());
}

Database::Database(const Database& other)
    : table_(std::make_shared<RelationTable>(other.relations())) {}

Database& Database::operator=(const Database& other) {
  if (this != &other) *this = Database(other);
  return *this;
}

Result<Relation*> Database::CreateRelation(RelationSchema schema) {
  if (table_ == nullptr) table_ = std::make_shared<RelationTable>();
  auto it = std::lower_bound(table_->begin(), table_->end(), schema.name(),
                             NamedBefore);
  if (it != table_->end() && it->name() == schema.name()) {
    return Status::AlreadyExists("relation " + schema.name());
  }
  return &*table_->emplace(it, std::move(schema));
}

const RelationTable& Database::relations() const {
  return table_ == nullptr ? kNoRelations : *table_;
}

Version Database::version() const {
  Version row;
  row.reserve(relations().size());
  for (const Relation& relation : relations()) row.push_back(relation.size());
  return row;
}

Result<bool> Database::Insert(const std::string& relation, Row row) {
  const RelationId id = Find(relation);
  if (id == kNoRelation) return Status::NotFound("relation " + relation);
  return this->relation(id).Insert(row);
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const Relation& relation : relations()) n += relation.size();
  return n;
}

bool Database::operator==(const Database& other) const {
  if (relations().size() != other.relations().size()) return false;
  for (size_t id = 0; id < relations().size(); ++id) {
    // Both tables are in name order, so equal ids name equal relations.
    const Relation& mine = relations()[id];
    const Relation& theirs = other.relations()[id];
    if (!(mine.schema() == theirs.schema()) || mine.size() != theirs.size()) {
      return false;
    }
    // Equal sizes of duplicate-free relations: containment one way suffices.
    const LogView log = mine.View();
    for (size_t i = 0; i < log.size(); ++i) {
      if (!theirs.Contains(log.at(i))) return false;
    }
  }
  return true;
}

std::string Database::ToString() const {
  std::string out;
  for (const Relation& relation : relations()) out += relation.ToString();
  return out;
}

}  // namespace p2pdb::rel
