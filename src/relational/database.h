// Database: the local database (LDB) of one node — a catalog of relations.
#ifndef P2PDB_RELATIONAL_DATABASE_H_
#define P2PDB_RELATIONAL_DATABASE_H_

#include <map>
#include <string>
#include <vector>

#include "src/relational/relation.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// Something conjunctive queries can be evaluated against: a name-to-log-view
/// lookup. The live Database answers with each relation's log at its current
/// size and an MVCC snapshot (src/relational/mvcc.h) with the size it
/// recorded, so the evaluator serves both the chase (writer side) and
/// concurrent readers through one path.
class ReadView {
 public:
  virtual ~ReadView() = default;

  /// The named relation's log up to this view's watermark, or an empty
  /// LogView when it does not exist (the evaluator treats that as empty).
  virtual LogView View(const std::string& relation) const = 0;
};

/// One node's local database. Relation names are unique within a node; the
/// paper keeps node signatures disjoint except for shared constants, so
/// relation names never clash across nodes.
class Database : public ReadView {
 public:
  /// Registers an empty relation. Fails if the name already exists.
  Status CreateRelation(RelationSchema schema);

  bool HasRelation(const std::string& name) const {
    return relations_.count(name) > 0;
  }

  Result<const Relation*> Get(const std::string& name) const;
  Result<Relation*> GetMutable(const std::string& name);

  const Relation* FindRelation(const std::string& name) const {
    auto it = relations_.find(name);
    return it == relations_.end() ? nullptr : &it->second;
  }

  LogView View(const std::string& relation) const override {
    const Relation* found = FindRelation(relation);
    return found == nullptr ? LogView() : found->View();
  }

  /// Convenience: inserts into a named relation; true if the row was new.
  Result<bool> Insert(const std::string& relation, Row row);

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  /// Total number of tuples across all relations.
  size_t TotalTuples() const;

  /// Deep equality (same relations, same tuple sets), whatever order the
  /// tuples were inserted in.
  bool operator==(const Database& other) const;

  std::string ToString() const;

 private:
  std::map<std::string, Relation> relations_;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_DATABASE_H_
