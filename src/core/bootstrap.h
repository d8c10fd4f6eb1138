// PeerBootstrap: the one construction path for a live Peer, shared by the
// in-process Session and the out-of-process daemon (src/daemon). Both
// provisioning surfaces — Session building a fleet from a P2PSystem, and
// p2pdb_peerd building its single peer from its config file and the system
// file it names — funnel through Build(), so the fresh-start and
// crash-recovery sequences (deferred registration, snapshot-publish
// deferral, storage attach before rule install before WAL replay) exist in
// exactly one place.
#ifndef P2PDB_CORE_BOOTSTRAP_H_
#define P2PDB_CORE_BOOTSTRAP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/peer.h"
#include "src/core/system.h"
#include "src/net/runtime.h"
#include "src/obs/trace.h"
#include "src/relational/database.h"
#include "src/storage/storage_manager.h"
#include "src/util/status.h"

namespace p2pdb::core {

class PeerBootstrap {
 public:
  struct Spec {
    NodeId id = kNoNode;
    std::string name;
    /// Initial database contents; ignored on the recover path (the state
    /// comes from the store's log instead).
    rel::Database db;
    /// The system's coordination rules; Build installs the subset headed at
    /// `id` ("initially each node knows all rules of which it is a target")
    /// and tolerates re-installation of rules the peer already holds.
    const std::vector<CoordinationRule>* rules = nullptr;
    /// Peer configuration, applied verbatim except that registration is
    /// deferred until the peer's state is in place and published
    /// (config.register_with_runtime still decides whether Build registers
    /// the peer at the end).
    Peer::Config config;
    /// Optional open store; attached before rules so Recover()'s rule-
    /// change replay lands on the re-registered initial rules.
    std::unique_ptr<storage::StorageManager> storage;
    /// Rebuild state from `storage` (Peer::Recover) instead of using `db`.
    bool recover = false;
    /// Causal tracing collector carried across restarts (may be null).
    obs::TraceCollector* collector = nullptr;
  };

  /// Builds a peer per `spec`, unregistered, publishes its first snapshot,
  /// and only then registers it (iff spec.config.register_with_runtime). On
  /// the recover path the peer is constructed with an empty database — on
  /// concurrent runtimes no message can reach a half-recovered peer — and
  /// recovered before the publish (readers keep the pre-crash snapshot until
  /// then), and its delivery readiness is verified after registration.
  static Result<std::unique_ptr<Peer>> Build(net::Runtime* runtime, Spec spec);
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_BOOTSTRAP_H_
