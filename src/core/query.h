// The read path of the query plane: answers point lookups and conjunctive
// queries from a peer's SnapshotStore. Safe to call from any thread, any
// number of threads at once — acquisition is one atomic pointer load and
// evaluation reads the snapshot's tuple logs below their published
// watermarks, which the writer never changes (no mutex, no condvar, no
// RunExclusive anywhere on this path).
//
// Every call records the obs instruments of the read plane:
//   query.eval_micros                histogram, per-query evaluation time
//   query.served                     sharded counter, queries answered
//   query.snapshot_staleness_batches gauge (high-water), max delta batches a
//                                    served snapshot lagged the live commit
#ifndef P2PDB_CORE_QUERY_H_
#define P2PDB_CORE_QUERY_H_

#include <set>
#include <string>

#include "src/relational/cq.h"
#include "src/relational/mvcc.h"
#include "src/util/status.h"

namespace p2pdb::core {

/// Evaluates `query` against the store's current snapshot.
Result<std::set<rel::Tuple>> SnapshotQuery(const rel::SnapshotStore& store,
                                           const rel::ConjunctiveQuery& query);

/// Point lookup: true iff `relation` currently contains `key` (false when
/// the relation does not exist — absent data, not an error).
Result<bool> SnapshotQueryPoint(const rel::SnapshotStore& store,
                                const std::string& relation,
                                const rel::Tuple& key);

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_QUERY_H_
