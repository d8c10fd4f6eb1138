// Database: the local database (LDB) of one node — a table of relations
// numbered by dense ids.
#ifndef P2PDB_RELATIONAL_DATABASE_H_
#define P2PDB_RELATIONAL_DATABASE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/relational/relation.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// A relation's number within one database: its rank by name, dense from 0.
/// Only the parser, the codecs, the workload builders and the oracle create
/// relations, so a database's ids are fixed once a peer serves it, and
/// compiled plans, rule heads and version rows bind to them.
using RelationId = uint32_t;
inline constexpr RelationId kNoRelation = UINT32_MAX;

/// How far a reader, a subscription or a log record has got: per relation
/// id, a size of that relation's log. The protocol never retracts data, so a
/// row names one earlier state of the whole database, and the entries two
/// rows differ by are exactly what was appended between them.
using Version = std::vector<size_t>;

/// Something conjunctive queries can be evaluated against: plans resolve
/// names once, when compiled (Find, Arity), and runs read logs by id (View).
/// The live Database answers with each log at its current size, an MVCC
/// snapshot (src/relational/mvcc.h) at its version row's sizes, so the chase
/// and concurrent readers share one evaluator.
class ReadView {
 public:
  virtual ~ReadView() = default;

  /// The id of the relation named `name`, or kNoRelation.
  virtual RelationId Find(const std::string& name) const = 0;
  virtual size_t Arity(RelationId id) const = 0;
  /// Relation `id`'s log up to this view's watermark.
  virtual LogView View(RelationId id) const = 0;
};

/// A database's relations in name order: relation i has id i. A Database
/// and the snapshots published of it share one table.
using RelationTable = std::vector<Relation>;

/// The id of the relation named `name` in `table`, or kNoRelation.
RelationId FindRelation(const RelationTable& table, const std::string& name);

/// One node's local database. Relation names are unique within a node; the
/// paper keeps node signatures disjoint except for shared constants, so
/// relation names never clash across nodes.
class Database : public ReadView {
 public:
  Database() : table_(std::make_shared<RelationTable>()) {}
  /// A copy gets a table of its own, each relation with its own log.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Registers an empty relation and returns it, valid until the next
  /// CreateRelation. Fails if the name already exists. Ids follow name
  /// order, so this renumbers the relations named after it: create every
  /// relation before anything binds an id.
  Result<Relation*> CreateRelation(RelationSchema schema);

  RelationId Find(const std::string& name) const override {
    return FindRelation(relations(), name);
  }
  size_t Arity(RelationId id) const override {
    return relation(id).schema().arity();
  }
  LogView View(RelationId id) const override { return relation(id).View(); }

  const Relation& relation(RelationId id) const { return (*table_)[id]; }
  Relation& relation(RelationId id) { return (*table_)[id]; }
  /// The named relation, which must exist.
  const Relation& relation(const std::string& name) const {
    const RelationId id = Find(name);
    assert(id != kNoRelation);
    return relation(id);
  }

  /// Every relation, in name order, which is id order.
  const RelationTable& relations() const;

  /// The table, shared with the snapshots published of this database. A
  /// database gets a new one when built, copied or recovered.
  std::shared_ptr<const RelationTable> table() const { return table_; }

  /// The current row: every relation's log size, by id.
  Version version() const;

  /// Convenience: inserts into a named relation; true if the row was new.
  Result<bool> Insert(const std::string& relation, Row row);

  /// Total number of tuples across all relations.
  size_t TotalTuples() const;

  /// Deep equality (same relations, same tuple sets), whatever order the
  /// tuples were inserted in.
  bool operator==(const Database& other) const;

  std::string ToString() const;

 private:
  std::shared_ptr<RelationTable> table_;  // Null only once moved from.
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_DATABASE_H_
