// Relation: a schema plus a set of tuples (set semantics, as in the paper).
#ifndef P2PDB_RELATIONAL_RELATION_H_
#define P2PDB_RELATIONAL_RELATION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/relational/schema.h"
#include "src/relational/tuple.h"
#include "src/relational/tuple_log.h"
#include "src/util/status.h"

namespace p2pdb::rel {

/// An extensional relation instance. Its tuples live once, in an append-only
/// TupleLog that answers membership and per-column lookups by hashing and
/// that MVCC snapshots read instead of copying (tuple_log.h). Relations only
/// grow: the protocol never retracts data. Evaluation and every other
/// order-free pass iterate the log in insertion order (View()); codecs,
/// printing and anything else that must not depend on arrival order ask for
/// SortedTuples().
class Relation {
 public:
  explicit Relation(RelationSchema schema);

  /// A copy gets its own log, filled in the source's insertion order, so
  /// evaluation visits its tuples in the same order; snapshots taken of the
  /// source keep reading the source's log.
  Relation(const Relation& other);
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t size() const { return log_->size(); }
  bool empty() const { return size() == 0; }

  /// Inserts a copy of `row`; returns true if it was new. Fails on arity
  /// mismatch.
  Result<bool> Insert(Row row);

  bool Contains(Row row) const { return View().Contains(row); }

  /// A sorted copy of every tuple: the canonical order, independent of the
  /// order tuples arrived in. Costs a copy and a sort per call.
  std::vector<Tuple> SortedTuples() const;

  /// Tuples containing no labeled null (the "certain" part of the instance).
  std::set<Tuple> CertainTuples() const;

  /// Every tuple inserted so far, in insertion order, as evaluation reads it.
  LogView View() const { return LogView(log_.get(), log_->size()); }

  /// The log itself, which a snapshot reads at its own watermark.
  const TupleLog& log() const { return *log_; }

  /// Multi-line listing for debugging / example output.
  std::string ToString() const;

 private:
  RelationSchema schema_;
  std::unique_ptr<TupleLog> log_;
};

}  // namespace p2pdb::rel

#endif  // P2PDB_RELATIONAL_RELATION_H_
