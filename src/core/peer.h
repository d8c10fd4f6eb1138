// Peer: one node's live protocol state — the Database Manager of the paper's
// Figure 2 architecture, wired to a runtime (the JXTA layer substitute), a
// local database (LDB) and the coordination rules it is the head of.
#ifndef P2PDB_CORE_PEER_H_
#define P2PDB_CORE_PEER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/discovery.h"
#include "src/core/system.h"
#include "src/core/update.h"
#include "src/core/wire.h"
#include "src/net/runtime.h"
#include "src/obs/trace.h"
#include "src/relational/database.h"
#include "src/relational/mvcc.h"
#include "src/storage/storage_manager.h"

namespace p2pdb::core {

class Peer : public net::PeerHandler {
 public:
  struct Config {
    UpdateOptions update;
    /// Attach current partial edge knowledge to duplicate discovery answers
    /// (the paper's eager gossip; costs bytes, changes nothing final).
    bool eager_discovery_answers = false;
    /// Register with the runtime at construction (the normal case). A
    /// restarting peer defers — on concurrent runtimes messages start
    /// arriving the moment the peer is registered, which must not overlap
    /// Recover() rebuilding the database — and calls Register() when ready.
    bool register_with_runtime = true;
    /// Share a caller-owned snapshot store instead of creating a private one.
    /// Session hands every peer a store that outlives the Peer object, so
    /// reader threads keep a stable target across crash/restart churn.
    std::shared_ptr<rel::SnapshotStore> snapshots;
  };

  Peer(NodeId id, std::string name, rel::Database db, net::Runtime* runtime,
       Config config);
  Peer(NodeId id, std::string name, rel::Database db, net::Runtime* runtime)
      : Peer(id, std::move(name), std::move(db), runtime, Config{}) {}
  /// Unregisters from the runtime, so no dispatch can outlive the peer.
  ~Peer() override;

  /// Registers with the runtime (idempotent); only needed after deferred
  /// construction (see Config::register_with_runtime).
  void Register();

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Registers a coordination rule this node is the head of ("initially each
  /// node knows all rules of which it is a target").
  Status AddInitialRule(const CoordinationRule& rule);

  /// Starts topology discovery with this node as origin (A1).
  void StartDiscovery();

  /// Starts a global update session from this node (the super-peer role).
  void StartUpdate(uint64_t session);

  /// Starts a query-dependent update pulling only the given local relations.
  void StartPartialUpdate(uint64_t session,
                          const std::set<std::string>& relations);

  /// Evaluates a local query against the node's current database. Runs on
  /// the live instance — only safe from the peer's own dispatch context;
  /// other threads read the snapshot store (Config::snapshots).
  Result<std::set<rel::Tuple>> LocalQuery(
      const rel::ConjunctiveQuery& query) const;

  /// Publishes the live database's row. PeerBootstrap calls it once the
  /// peer's state is in place, which starts serving the database's table.
  void PublishSnapshot();

  // --- Durability (optional; peers without storage behave as before) ---

  /// Takes ownership of an open store and establishes its base state
  /// (records the current database iff the store has no base yet). From
  /// here on every delta the chase applies is logged through it.
  Status AttachStorage(std::unique_ptr<storage::StorageManager> storage);
  storage::StorageManager* storage() { return storage_.get(); }

  /// Called by the update engine after a chase application appended to the
  /// database, whose version row was `before` when the application began.
  /// Publishes a snapshot; with storage attached, logs every entry past
  /// `before` as one WAL delta. Errors are logged, not propagated — the
  /// protocol must keep running even if the disk misbehaves.
  void OnDeltaApplied(const rel::Version& before);

  /// Called by the update engine after a dynamic rule change mutates this
  /// node's rule list; logs it so Recover() replays the change. Errors are
  /// logged, not propagated (same policy as OnDeltaApplied).
  void LogRuleChange(const wire::RuleChangeRecord& record);

  /// Rebuilds the database from storage (base + delta replay, in log order),
  /// advances the null factory past every recovered null this node minted,
  /// and replays logged rule changes on top of the current rule list. Writes
  /// nothing to storage; a log that fails to decode fails the call before
  /// the database or rules change. Must be called before any protocol
  /// activity on this peer — and, for rule replay to land on the right base,
  /// after the initial rules have been re-registered.
  Result<storage::RecoveryInfo> Recover();

  // net::PeerHandler: decode and dispatch.
  void OnMessage(const net::Message& msg) override;

  // --- Accessors ---
  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  rel::Database& db() { return db_; }
  const rel::Database& db() const { return db_; }
  rel::NullFactory& nulls() { return nulls_; }
  net::Runtime* runtime() { return runtime_; }
  const Config& config() const { return config_; }
  const std::vector<CoordinationRule>& rules() const { return rules_; }
  std::vector<CoordinationRule>* mutable_rules() { return &rules_; }

  DiscoveryEngine& discovery() { return *discovery_; }
  UpdateEngine& update() { return *update_; }
  const DiscoveryEngine& discovery() const { return *discovery_; }
  const UpdateEngine& update() const { return *update_; }

  // --- Topology knowledge (installed by the discovery closure wave) ---
  const std::set<wire::Edge>& known_edges() const { return known_edges_; }
  void AdoptTopology(const std::set<wire::Edge>& edges);
  /// Maximal dependency paths from this node per its current knowledge.
  std::vector<std::vector<NodeId>> MaximalPaths() const;
  /// This node's strongly connected component per its current knowledge.
  std::set<NodeId> OwnScc() const;

  /// Distinct dependency targets (body nodes) over current rules.
  std::set<NodeId> DependencyTargets() const;

  /// Serializes and sends one protocol message. While a trace span is open
  /// (a traced message is being handled), the outgoing message inherits its
  /// trace id and names the span as causal parent. Whether a coalescing
  /// transport may batch it is a property of `type` (net::IsUrgent).
  void Send(NodeId to, net::MessageType type, std::vector<uint8_t> payload);

  // --- Causal tracing (optional; see src/obs/trace.h) ---

  /// Attaches the collector spans are reported to; nullptr disables tracing.
  void SetTraceCollector(obs::TraceCollector* collector) {
    collector_ = collector;
  }
  obs::TraceCollector* trace_collector() const { return collector_; }

  /// Charges time to the open span's chase / WAL buckets. Called by the
  /// update engine and OnDeltaApplied; no-ops when no span is open. Safe as
  /// plain members: the runtime serializes all dispatch on one peer.
  void RecordChaseMicros(uint64_t micros) {
    if (span_open_) active_span_.chase_micros += micros;
  }
  void RecordWalMicros(uint64_t micros) {
    if (span_open_) active_span_.wal_micros += micros;
  }

 private:
  /// Opens the span `msg` (or a root update, for the synthetic root message)
  /// is handled under; CloseTraceSpan() stamps the end time and records it.
  void OpenTraceSpan(const net::TraceContext& ctx, net::MessageType type,
                     uint64_t bytes, uint64_t queue_wait);
  void CloseTraceSpan();

  /// The former OnMessage body: decode and route to the engines.
  void DispatchMessage(const net::Message& msg);
  NodeId id_;
  std::string name_;
  rel::Database db_;
  rel::NullFactory nulls_;
  net::Runtime* runtime_;
  Config config_;
  std::vector<CoordinationRule> rules_;
  std::set<wire::Edge> known_edges_;
  std::shared_ptr<rel::SnapshotStore> snapshots_;
  std::unique_ptr<storage::StorageManager> storage_;
  std::unique_ptr<DiscoveryEngine> discovery_;
  std::unique_ptr<UpdateEngine> update_;

  obs::TraceCollector* collector_ = nullptr;
  obs::TraceSpan active_span_;
  bool span_open_ = false;
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_PEER_H_
