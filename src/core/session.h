// Session: drives a fleet of peers over a runtime — builds Peer objects from a
// P2PSystem, runs the discovery phase, the global update, query-dependent
// updates, and injects dynamic changes (the super-peer role of Section 5,
// including its rule-broadcast and statistics duties).
#ifndef P2PDB_CORE_SESSION_H_
#define P2PDB_CORE_SESSION_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/dynamics.h"
#include "src/core/peer.h"
#include "src/core/system.h"
#include "src/net/runtime.h"
#include "src/storage/storage_manager.h"

namespace p2pdb::core {

class Session {
 public:
  struct Options {
    Peer::Config peer;
    NodeId super_peer = 0;
    /// kAll runs one discovery instance per node (every node certainly learns
    /// its own paths); kSuperPeer runs only the super-peer's instance, which
    /// covers exactly the nodes that will participate in its update.
    enum class DiscoveryMode { kAll, kSuperPeer };
    DiscoveryMode discovery = DiscoveryMode::kAll;
    /// The session's one durability source: AttachStorage, RestartPeer and
    /// RunUpdateWithChurn open node `id`'s log in storage::PeerDir(root, id)
    /// (a daemon fleet's layout) with `sync`, so a restart reopens the log
    /// its crash left. An empty root keeps the session purely volatile.
    std::string storage_root;
    storage::SyncMode sync = storage::SyncMode::kSync;
  };

  /// Builds one peer per system node and registers the coordination rules at
  /// their head nodes. The system's databases are copied into the peers.
  Session(const P2PSystem& system, net::Runtime* runtime, Options options);
  Session(const P2PSystem& system, net::Runtime* runtime)
      : Session(system, runtime, Options{}) {}

  /// Phase 1: topology discovery, run to quiescence.
  Status RunDiscovery();

  /// Delivers the queued rule changes at their offsets from now and runs the
  /// network to quiescence: how a change reaches the peers outside an update
  /// (a closed node reopens, an idle one picks the rule up at its next
  /// update).
  Status Run();

  /// Phase 2: global update from the super-peer, run to quiescence.
  /// Each call uses a fresh session id.
  Status RunUpdate();

  /// Like RunUpdate but starts the same session from several initiators at
  /// once (disconnected sub-networks each need a local initiator).
  Status RunUpdateFrom(const std::vector<NodeId>& initiators);

  /// Query-dependent update: pull only `relations` toward node `at`, then run
  /// to quiescence (termination by network quiescence, per Section 3's
  /// query-dependent mode).
  Status RunPartialUpdate(NodeId at, const std::set<std::string>& relations);

  // --- Query plane (lock-free MVCC read path) ---
  //
  // Safe to call from any thread at any time — including while an update
  // propagates and while churn crashes/restarts peers. Reads go through
  // per-node SnapshotStores owned by the session (created at construction,
  // never destroyed, shared with each Peer incarnation), so they never
  // touch the peers_ vector and never take a lock or RunExclusive: snapshot
  // acquisition copies one version row out of the store's ring. A crashed
  // node keeps serving its last committed snapshot until its restart
  // publishes the recovered state.

  /// Evaluates a conjunctive query at node `at`'s latest snapshot.
  Result<std::set<rel::Tuple>> Query(NodeId at,
                                     const rel::ConjunctiveQuery& query) const;

  /// Point lookup at node `at`'s latest snapshot (false = absent).
  Result<bool> QueryPoint(NodeId at, const std::string& relation,
                          const rel::Tuple& key) const;

  /// Node `at`'s latest snapshot, for repeated reads at one version.
  Result<rel::DbSnapshot> PeerSnapshot(NodeId at) const;

  /// Turns on causal tracing: every live peer (and every later restart)
  /// reports propagation spans to `collector`, with 1-in-`sample_every_n`
  /// root updates traced. Also enables the per-message detailed-timing gate
  /// (mailbox queue waits). nullptr turns tracing back off.
  void EnableTracing(obs::TraceCollector* collector,
                     uint32_t sample_every_n = 1);

  /// Queues a dynamic change. The next call that runs the network (Run,
  /// RunDiscovery, RunUpdate, RunUpdateFrom, RunPartialUpdate, Rediscover or
  /// RunUpdateWithChurn) takes it and sends the addRule/deleteRule
  /// notification to its head node at that call's start plus
  /// `change.at_micros`: an offset, like a churn event's.
  void ScheduleChange(const AtomicChange& change);

  /// Re-runs discovery so every peer refreshes its topology knowledge and SCC
  /// membership after dynamic changes (needed when changes affect cycles).
  /// Every live peer starts afresh, whether it has discovered or not; its
  /// knowledge is a union over rounds, so a deleteLink shrinks no SCC.
  Status Rediscover();

  // --- Peer churn (crash / durable restart) ---
  //
  // All durability flows through Options::storage_root: AttachStorage and
  // RestartPeer open node `id`'s store in the same directory (and return its
  // own error when it cannot open), so a restart reuses the crashed log.

  /// Opens node `id`'s store and attaches it to its live peer (logs the
  /// current database as the base state; every applied delta is logged
  /// from here on). Requires Options::storage_root.
  Status AttachStorage(NodeId id);

  /// Simulates a process crash: destroys the peer object and unregisters it
  /// from the runtime, so in-flight messages to it are dropped. Its durable
  /// storage (if any) survives on disk.
  Status CrashPeer(NodeId id);

  /// Restarts a crashed peer: reopens its store and rebuilds it via
  /// Peer::Recover() (log replay), re-registers
  /// the initial coordination rules headed at it, and re-registers it with
  /// the runtime. The caller then rejoins it via the normal
  /// discovery/session path.
  Status RestartPeer(NodeId id);

  /// True when the peer object exists (has not crashed).
  bool IsAlive(NodeId id) const {
    return id < peers_.size() && peers_[id] != nullptr;
  }

  /// Runs one update session from the super-peer while executing `churn` at
  /// its offsets from this call's start, in one time-ordered loop with the
  /// queued rule changes — simulated micros on SimRuntime (deterministic),
  /// elapsed wall-clock micros on TcpRuntime (best effort, via its sleeping
  /// RunUntil): crashing peers get storage attached up front,
  /// crashes and restarts fire mid-propagation, and after the script drains
  /// every restarted peer rejoins through rediscovery plus a fresh update
  /// session, re-converging the whole network (the protocol is monotone, so
  /// the second session is idempotent on already-complete peers).
  /// Requires Options::storage_root when the script crashes anyone.
  Status RunUpdateWithChurn(const ChurnScript& churn);

  // --- Inspection ---
  Peer& peer(NodeId id) { return *peers_[id]; }  // Precondition: IsAlive(id).
  const Peer& peer(NodeId id) const { return *peers_[id]; }
  size_t peer_count() const { return peers_.size(); }

  /// Nodes participating in the super-peer's update: UpdateParticipants over
  /// the live peers' current rules.
  std::set<NodeId> Participants() const;

  /// True when every participant's update state is closed; nodes still open
  /// are reported in `open_nodes` when provided.
  bool AllClosed(std::set<NodeId>* open_nodes = nullptr) const;

  /// Deep copies every peer's current database (index = node id).
  std::vector<rel::Database> SnapshotDatabases() const;

  /// The super-peer's statistics collection (Section 5): per-peer update
  /// counters plus network totals, as a printable table.
  std::string CollectStatistics() const;

  net::Runtime* runtime() { return runtime_; }

 private:
  /// The one run loop behind every call that runs the network: takes the
  /// queued changes, fires them and `churn` in time order (a change first
  /// at equal times), each once RunUntil(start + at_micros) returns — a
  /// change is sent to its head through Runtime::Send, a churn event crashes
  /// or restarts its node — then runs to quiescence.
  Status RunScript(uint64_t start, const ChurnScript& churn = {});

  net::Runtime* runtime_;
  Options options_;
  std::vector<std::unique_ptr<Peer>> peers_;  // null entry = crashed peer
  /// One snapshot store per node, fixed at construction and shared with
  /// every Peer incarnation of that node (see Peer::Config::snapshots).
  /// The vector is never resized and the stores are never destroyed
  /// mid-session, so reader threads need no lock to reach them.
  std::vector<std::shared_ptr<rel::SnapshotStore>> stores_;
  /// Kept for restarts: node names and the system's initial rules (a
  /// restarted head re-learns "all rules of which it is a target"; rule
  /// changes applied after session start are replayed from the peer's WAL by
  /// Peer::Recover, so the change driver need not re-deliver them).
  std::vector<std::string> names_;
  std::vector<CoordinationRule> initial_rules_;
  uint64_t next_session_ = 1;
  obs::TraceCollector* collector_ = nullptr;  // Re-attached on RestartPeer.
  std::vector<AtomicChange> queued_changes_;  // See ScheduleChange.
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_SESSION_H_
