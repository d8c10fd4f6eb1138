// Query workload generator: a deterministic mixed stream of point lookups
// and conjunctive queries over a scenario's node databases, for exercising
// the MVCC query plane (tests and perfbench's readers). Reads are generated
// against the *initial* instances, so they stay valid — and monotonically
// growing — while an update propagates underneath.
#ifndef P2PDB_WORKLOAD_QUERIES_H_
#define P2PDB_WORKLOAD_QUERIES_H_

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/relational/cq.h"
#include "src/relational/tuple.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace p2pdb::workload {

struct QueryWorkloadOptions {
  /// Number of operations generated; runners cycle the list for longer runs.
  size_t ops = 1024;
  /// Fraction of ops that are point lookups (the rest are CQs: single-atom
  /// selections and two-atom joins in equal measure).
  double point_fraction = 0.5;
  /// Fraction of point lookups aimed at tuples that do not exist.
  double miss_fraction = 0.2;
  uint64_t seed = 21;
};

/// One generated read.
struct QueryOp {
  NodeId node = 0;
  /// Point lookup when true (relation/key set); CQ otherwise (cq set).
  bool is_point = false;
  std::string relation;
  rel::Tuple key;
  bool expect_hit = false;
  rel::ConjunctiveQuery cq;
};

/// Generates `options.ops` reads spread across the system's nodes. Every
/// produced CQ passes CheckSafe; every point key targets (or deliberately
/// misses) the node's initial instance. Fails if the system has no node
/// with data to read.
Result<std::vector<QueryOp>> BuildQueryWorkload(
    const core::P2PSystem& system, const QueryWorkloadOptions& options);

}  // namespace p2pdb::workload

#endif  // P2PDB_WORKLOAD_QUERIES_H_
