#include "src/relational/mvcc.h"

namespace p2pdb::rel {

SnapshotPtr BuildSnapshot(const Database& db, uint64_t version) {
  DbSnapshot::RelationMap relations;
  for (const auto& [name, relation] : db.relations()) {
    relations.emplace(name, DbSnapshot::PublishedLog{relation.log(),
                                                     relation.View().size()});
  }
  return std::make_shared<const DbSnapshot>(version, std::move(relations));
}

}  // namespace p2pdb::rel
