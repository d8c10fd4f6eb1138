// Acyclic baseline: the [Halevy et al., 2003]-style algorithm that assumes an
// acyclic P2P network — "a query is propagated through the network until it
// reaches the leaves". Each node pulls from its sources exactly once, in
// reverse topological order. Fails on cyclic systems.
#ifndef P2PDB_CORE_ACYCLIC_PULL_H_
#define P2PDB_CORE_ACYCLIC_PULL_H_

#include <vector>

#include "src/core/system.h"
#include "src/relational/chase.h"

namespace p2pdb::core {

struct AcyclicPullResult {
  std::vector<rel::Database> node_dbs;
  /// Accounting equivalent to the message statistics of the distributed run:
  /// one request plus one answer per rule body part.
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

Result<AcyclicPullResult> RunAcyclicPull(
    const P2PSystem& system, const rel::ChaseOptions& chase_options);

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_ACYCLIC_PULL_H_
