#include "src/core/session.h"

#include <algorithm>
#include <utility>

#include "src/core/bootstrap.h"
#include "src/core/dependency.h"
#include "src/obs/metrics.h"
#include "src/util/string_util.h"

namespace p2pdb::core {

namespace {
Result<std::unique_ptr<storage::StorageManager>> OpenStorage(
    const Session::Options& options, NodeId id) {
  if (options.storage_root.empty()) {
    return Status::InvalidArgument("session has no storage root");
  }
  storage::StorageOptions storage;
  storage.dir = storage::PeerDir(options.storage_root, id);
  storage.sync = options.sync;
  return storage::StorageManager::Open(storage);
}

/// The addRule/deleteRule notification `change` sends to its head node.
net::Message ChangeMessage(const AtomicChange& change) {
  net::Message msg;
  if (change.kind == AtomicChange::Kind::kAddLink) {
    msg.type = net::MessageType::kAddRule;
    msg.from = msg.to = change.rule.head_node;
    msg.payload = wire::AddRuleChange{change.rule}.Encode();
  } else {
    msg.type = net::MessageType::kDeleteRule;
    msg.from = msg.to = change.head;
    msg.payload = wire::DeleteRuleChange{change.rule_id}.Encode();
  }
  return msg;
}
}  // namespace

Session::Session(const P2PSystem& system, net::Runtime* runtime,
                 Options options)
    : runtime_(runtime), options_(std::move(options)) {
  peers_.reserve(system.node_count());
  stores_.reserve(system.node_count());
  initial_rules_ = system.rules();
  for (const NodeInfo& info : system.nodes()) {
    stores_.push_back(std::make_shared<rel::SnapshotStore>());
    PeerBootstrap::Spec spec;
    spec.id = info.id;
    spec.name = info.name;
    spec.db = info.db;
    // "Initially each node knows all rules of which it is a target":
    // Build installs the rules headed at this node.
    spec.rules = &initial_rules_;
    spec.config = options_.peer;
    spec.config.snapshots = stores_.back();
    auto built = PeerBootstrap::Build(runtime_, std::move(spec));
    // Fresh construction without storage cannot fail (rules are filtered to
    // this head, duplicates tolerated); a null entry here would mean a bug
    // in PeerBootstrap, and IsAlive() reports it as a crashed node.
    peers_.push_back(built.ok() ? std::move(*built) : nullptr);
    names_.push_back(info.name);
  }
}

Status Session::RunScript(uint64_t start, const ChurnScript& churn) {
  std::vector<AtomicChange> changes = std::exchange(queued_changes_, {});
  std::stable_sort(changes.begin(), changes.end(),
                   [](const AtomicChange& a, const AtomicChange& b) {
                     return a.at_micros < b.at_micros;
                   });
  auto change = changes.begin();
  auto event = churn.begin();  // Time-ordered (ValidateChurnScript).
  while (change != changes.end() || event != churn.end()) {
    const bool change_next =
        event == churn.end() ||
        (change != changes.end() && change->at_micros <= event->at_micros);
    const uint64_t at = change_next ? change->at_micros : event->at_micros;
    P2PDB_RETURN_IF_ERROR(runtime_->RunUntil(start + at));
    if (change_next) {
      runtime_->Send(ChangeMessage(*change++));
    } else if (event->kind == ChurnEvent::Kind::kCrash) {
      P2PDB_RETURN_IF_ERROR(CrashPeer((event++)->node));
    } else {
      P2PDB_RETURN_IF_ERROR(RestartPeer((event++)->node));
    }
  }
  return runtime_->Run();
}

Status Session::Run() { return RunScript(runtime_->NowMicros()); }

Status Session::RunDiscovery() {
  const uint64_t start = runtime_->NowMicros();
  // Earlier peers' discovery waves reach later peers while this loop is
  // still running, so every control-plane Start goes through the runtime's
  // per-peer exclusion instead of racing the handler upcalls.
  if (options_.discovery == Options::DiscoveryMode::kSuperPeer) {
    runtime_->RunExclusive(options_.super_peer, [&] {
      peers_[options_.super_peer]->StartDiscovery();
    });
  } else {
    for (auto& peer : peers_) {
      if (peer != nullptr) {
        runtime_->RunExclusive(peer->id(), [&] { peer->StartDiscovery(); });
      }
    }
  }
  return RunScript(start);
}

Status Session::RunUpdate() {
  return RunUpdateFrom({options_.super_peer});
}

Status Session::RunUpdateFrom(const std::vector<NodeId>& initiators) {
  const uint64_t start = runtime_->NowMicros();
  uint64_t session = next_session_++;
  for (NodeId n : initiators) {
    if (!IsAlive(n)) {
      return Status::InvalidArgument("update initiator " + std::to_string(n) +
                                     " is not alive");
    }
    runtime_->RunExclusive(n, [&] { peers_[n]->StartUpdate(session); });
  }
  return RunScript(start);
}

Status Session::RunPartialUpdate(NodeId at,
                                 const std::set<std::string>& relations) {
  const uint64_t start = runtime_->NowMicros();
  uint64_t session = next_session_++;
  runtime_->RunExclusive(
      at, [&] { peers_[at]->StartPartialUpdate(session, relations); });
  return RunScript(start);
}

Result<std::set<rel::Tuple>> Session::Query(
    NodeId at, const rel::ConjunctiveQuery& query) const {
  if (at >= stores_.size()) {
    return Status::InvalidArgument("unknown node " + std::to_string(at));
  }
  return stores_[at]->Query(query);
}

Result<bool> Session::QueryPoint(NodeId at, const std::string& relation,
                                 const rel::Tuple& key) const {
  if (at >= stores_.size()) {
    return Status::InvalidArgument("unknown node " + std::to_string(at));
  }
  return stores_[at]->QueryPoint(relation, key);
}

Result<rel::DbSnapshot> Session::PeerSnapshot(NodeId at) const {
  if (at >= stores_.size()) {
    return Status::InvalidArgument("unknown node " + std::to_string(at));
  }
  return stores_[at]->Acquire();
}

void Session::EnableTracing(obs::TraceCollector* collector,
                            uint32_t sample_every_n) {
  collector_ = collector;
  if (collector != nullptr) collector->set_sample_every(sample_every_n);
  // Queue-wait measurement costs a clock read per queued message; only worth
  // paying while someone is collecting.
  obs::SetDetailedTiming(collector != nullptr);
  for (auto& peer : peers_) {
    if (peer != nullptr) {
      runtime_->RunExclusive(peer->id(),
                             [&] { peer->SetTraceCollector(collector); });
    }
  }
}

void Session::ScheduleChange(const AtomicChange& change) {
  queued_changes_.push_back(change);
}

Status Session::Rediscover() {
  const uint64_t start = runtime_->NowMicros();
  for (auto& peer : peers_) {
    if (peer != nullptr) {
      runtime_->RunExclusive(peer->id(), [&] { peer->StartDiscovery(); });
    }
  }
  P2PDB_RETURN_IF_ERROR(RunScript(start));
  for (auto& peer : peers_) {
    if (peer != nullptr) {
      runtime_->RunExclusive(peer->id(), [&] { peer->update().RefreshScc(); });
    }
  }
  return runtime_->Run();
}

Status Session::AttachStorage(NodeId id) {
  if (!IsAlive(id)) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is not alive");
  }
  auto storage = OpenStorage(options_, id);
  if (!storage.ok()) return storage.status();
  return peers_[id]->AttachStorage(std::move(*storage));
}

Status Session::CrashPeer(NodeId id) {
  if (!IsAlive(id)) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is not alive");
  }
  // Unregister first so nothing is delivered to a dying handler, then drop
  // the peer: its volatile state (database, subscriptions, engines) is gone;
  // only what its store wrote to disk survives.
  runtime_->UnregisterPeer(id);
  peers_[id].reset();
  return Status::OK();
}

Status Session::RestartPeer(NodeId id) {
  if (id >= peers_.size()) {
    return Status::InvalidArgument("unknown node " + std::to_string(id));
  }
  if (peers_[id] != nullptr) {
    return Status::InvalidArgument("node " + std::to_string(id) +
                                   " is still alive");
  }
  auto storage = OpenStorage(options_, id);
  if (!storage.ok()) return storage.status();
  // The full restart choreography (deferred registration, rejoining the
  // node's long-lived snapshot store without publishing the empty
  // construction-time database, storage before rules before Recover) lives
  // in PeerBootstrap — the same path p2pdb_peerd takes when a re-exec'd
  // process reopens its data directory.
  PeerBootstrap::Spec spec;
  spec.id = id;
  spec.name = names_[id];
  spec.rules = &initial_rules_;
  spec.config = options_.peer;
  spec.config.snapshots = stores_[id];
  spec.storage = std::move(*storage);
  spec.recover = true;
  spec.collector = collector_;  // Tracing survives the restart.
  auto built = PeerBootstrap::Build(runtime_, std::move(spec));
  if (!built.ok()) return built.status();
  peers_[id] = std::move(*built);
  return Status::OK();
}

Status Session::RunUpdateWithChurn(const ChurnScript& churn) {
  P2PDB_RETURN_IF_ERROR(ValidateChurnScript(churn, peers_.size()));
  // Event times are offsets from here, the start of this update.
  const uint64_t start = runtime_->NowMicros();
  // Durability must be in place before the crash: attach storage to every
  // peer the script will kill (base record now, deltas from here on).
  for (const ChurnEvent& e : churn) {
    if (e.kind != ChurnEvent::Kind::kCrash) continue;
    if (!IsAlive(e.node)) continue;
    if (peers_[e.node]->storage() != nullptr) continue;
    P2PDB_RETURN_IF_ERROR(AttachStorage(e.node));
  }

  if (!IsAlive(options_.super_peer)) {
    return Status::InvalidArgument("super peer " +
                                   std::to_string(options_.super_peer) +
                                   " is not alive");
  }
  uint64_t session = next_session_++;
  runtime_->RunExclusive(options_.super_peer, [&] {
    peers_[options_.super_peer]->StartUpdate(session);
  });
  P2PDB_RETURN_IF_ERROR(RunScript(start, churn));
  if (std::any_of(churn.begin(), churn.end(), [](const ChurnEvent& e) {
        return e.kind == ChurnEvent::Kind::kRestart;
      })) {
    // Rejoin: recovered peers re-learn the topology, then a fresh session
    // re-subscribes everything and drives the network back to the global
    // fix-point (set-union answers make the re-run idempotent).
    P2PDB_RETURN_IF_ERROR(Rediscover());
    P2PDB_RETURN_IF_ERROR(RunUpdate());
  }
  return Status::OK();
}

std::set<NodeId> Session::Participants() const {
  std::set<wire::Edge> edges;
  for (const auto& peer : peers_) {
    if (peer == nullptr) continue;  // Crashed peers contribute no edges.
    for (const CoordinationRule& r : peer->rules()) {
      for (const CoordinationRule::BodyPart& p : r.body) {
        edges.insert({r.head_node, p.node});
      }
    }
  }
  DependencyGraph graph(edges);
  std::set<NodeId> out = graph.ReachableFrom(options_.super_peer);
  out.insert(options_.super_peer);
  return out;
}

bool Session::AllClosed(std::set<NodeId>* open_nodes) const {
  bool all = true;
  for (NodeId n : Participants()) {
    if (peers_[n] == nullptr ||
        peers_[n]->update().state() != UpdateEngine::State::kClosed) {
      all = false;
      if (open_nodes != nullptr) open_nodes->insert(n);
    }
  }
  return all;
}

std::vector<rel::Database> Session::SnapshotDatabases() const {
  std::vector<rel::Database> out;
  out.reserve(peers_.size());
  for (const auto& peer : peers_) {
    // A crashed peer snapshots as an empty database.
    out.push_back(peer != nullptr ? peer->db() : rel::Database());
  }
  return out;
}

std::string Session::CollectStatistics() const {
  std::string out = StrFormat(
      "%-6s %-8s %-8s %10s %8s %8s %8s %8s\n", "node", "state_d", "state_u",
      "tuples", "inserted", "joins", "answers", "reopens");
  for (const auto& peer : peers_) {
    if (peer == nullptr) continue;
    const UpdateEngine::Stats& stats = peer->update().stats();
    const char* state_d =
        peer->discovery().state() == DiscoveryEngine::State::kClosed
            ? "closed"
            : (peer->discovery().state() == DiscoveryEngine::State::kDiscovery
                   ? "disc"
                   : "undef");
    const char* state_u =
        peer->update().state() == UpdateEngine::State::kClosed
            ? "closed"
            : (peer->update().state() == UpdateEngine::State::kOpen ? "open"
                                                                    : "idle");
    out += StrFormat(
        "%-6s %-8s %-8s %10zu %8llu %8llu %8llu %8llu\n", peer->name().c_str(),
        state_d, state_u, peer->db().TotalTuples(),
        static_cast<unsigned long long>(stats.tuples_inserted),
        static_cast<unsigned long long>(stats.joins_evaluated),
        static_cast<unsigned long long>(stats.answers_sent),
        static_cast<unsigned long long>(stats.reopens));
  }
  out += "network: " + runtime_->stats().Report();
  return out;
}

}  // namespace p2pdb::core
