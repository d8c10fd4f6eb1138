#include "src/core/peer.h"

#include <type_traits>

#include "src/core/dependency.h"
#include "src/relational/eval.h"
#include "src/util/logging.h"

namespace p2pdb::core {

namespace {

/// Decodes `msg`'s payload as the one `handle` takes and hands it over; a
/// malformed payload is dropped with a warning (wire::DecodePayload).
template <class Engine, class Payload>
void Deliver(const net::Message& msg, Engine* engine,
             void (Engine::*handle)(NodeId, Payload)) {
  if (auto p = wire::DecodePayload<std::remove_cvref_t<Payload>>(msg)) {
    (engine->*handle)(msg.from, std::move(*p));
  }
}

}  // namespace

Peer::Peer(NodeId id, std::string name, rel::Database db,
           net::Runtime* runtime, Config config)
    : id_(id),
      name_(std::move(name)),
      db_(std::move(db)),
      nulls_(id),
      runtime_(runtime),
      config_(config) {
  discovery_ = std::make_unique<DiscoveryEngine>(this);
  update_ = std::make_unique<UpdateEngine>(this, config_.update);
  snapshots_ = config_.snapshots != nullptr
                   ? config_.snapshots
                   : std::make_shared<rel::SnapshotStore>();
  if (config_.register_with_runtime) Register();
}

Peer::~Peer() {
  // Detach before members die: on concurrent runtimes UnregisterPeer blocks
  // until any in-progress OnMessage returns, so dispatch never dangles.
  runtime_->UnregisterPeer(id_);
}

void Peer::Register() { runtime_->RegisterPeer(id_, this); }

Status Peer::AddInitialRule(const CoordinationRule& rule) {
  if (rule.head_node != id_) {
    return Status::InvalidArgument("rule " + rule.id +
                                   " is not headed at this node");
  }
  for (const CoordinationRule& r : rules_) {
    if (r.id == rule.id) return Status::AlreadyExists("rule " + rule.id);
  }
  rules_.push_back(rule);
  return Status::OK();
}

void Peer::StartDiscovery() { discovery_->Start(); }

void Peer::StartUpdate(uint64_t session) {
  // Root of the propagation DAG: when this update is sampled, every message
  // the session fans out inherits the trace id minted here, and this span
  // (parent 0, hop 0) is where fixpoint latency is measured from.
  if (collector_ != nullptr && !span_open_ && collector_->SampleRoot()) {
    net::TraceContext root;
    root.trace_id = collector_->NextTraceId();
    OpenTraceSpan(root, net::MessageType::kUpdateStart, 0, 0);
    update_->StartSession(session);
    CloseTraceSpan();
    return;
  }
  update_->StartSession(session);
}

void Peer::StartPartialUpdate(uint64_t session,
                              const std::set<std::string>& relations) {
  if (collector_ != nullptr && !span_open_ && collector_->SampleRoot()) {
    net::TraceContext root;
    root.trace_id = collector_->NextTraceId();
    OpenTraceSpan(root, net::MessageType::kUpdateStart, 0, 0);
    update_->StartPartial(session, relations);
    CloseTraceSpan();
    return;
  }
  update_->StartPartial(session, relations);
}

Result<std::set<rel::Tuple>> Peer::LocalQuery(
    const rel::ConjunctiveQuery& query) const {
  return rel::EvaluateQuery(db_, query);
}

void Peer::PublishSnapshot() {
  snapshots_->Publish(db_);
}

Status Peer::AttachStorage(std::unique_ptr<storage::StorageManager> storage) {
  storage_ = std::move(storage);
  return storage_->EnsureBase(db_);
}

void Peer::OnDeltaApplied(const rel::Version& before) {
  // MVCC commit point: publish the logs' new sizes before any durability
  // work. Readers observe either none or all of this chase application (a
  // prefix of committed batches), and visibility is decoupled from fsync —
  // safe because the protocol is monotone and a crash loses nothing a reader
  // could not re-derive.
  snapshots_->Commit(db_);
  if (storage_ == nullptr) return;
  uint64_t wal_start = span_open_ ? runtime_->NowMicros() : 0;
  Status logged = storage_->LogDelta(db_, before);
  if (span_open_) RecordWalMicros(runtime_->NowMicros() - wal_start);
  if (!logged.ok()) {
    P2PDB_LOG(kError) << "WAL append failed at node " << id_ << ": "
                      << logged.ToString();
  }
}

void Peer::LogRuleChange(const wire::RuleChangeRecord& record) {
  if (storage_ == nullptr) return;
  Status logged = storage_->LogRuleChange(record.Encode());
  if (!logged.ok()) {
    P2PDB_LOG(kError) << "rule-change WAL append failed at node " << id_
                      << ": " << logged.ToString();
  }
}

Result<storage::RecoveryInfo> Peer::Recover() {
  if (storage_ == nullptr) {
    return Status::InvalidArgument("no storage attached to node " +
                                   std::to_string(id_));
  }
  storage::RecoveryInfo info;
  auto db = storage_->Recover(&info);
  if (!db.ok()) return db.status();
  // Decode every rule change before touching live state, so a damaged
  // record fails the recovery whole.
  std::vector<wire::RuleChangeRecord> changes;
  for (const std::vector<uint8_t>& blob : info.rule_changes) {
    auto record = wire::RuleChangeRecord::Decode(blob);
    if (!record.ok()) return record.status();
    changes.push_back(record.MoveValue());
  }
  db_ = std::move(*db);
  // Replay mid-session rule changes over the (re-registered) initial rules,
  // in log order: an add of a known id is a no-op, a delete of an unknown id
  // is a no-op, so replaying the full history lands on the pre-crash rules.
  for (const wire::RuleChangeRecord& record : changes) {
    if (record.kind == wire::RuleChangeRecord::Kind::kAdd) {
      Status added = AddInitialRule(record.rule);
      if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
        return added;
      }
    } else {
      for (auto it = rules_.begin(); it != rules_.end(); ++it) {
        if (it->id == record.rule_id) {
          rules_.erase(it);
          break;
        }
      }
    }
  }
  // The recovered instance contains every null this node minted before the
  // crash (heads insert invented nulls locally, and data is never retracted);
  // advance the factory past all of them so fresh nulls cannot collide.
  for (const rel::Relation& relation : db_.relations()) {
    const rel::LogView log = relation.View();
    for (size_t i = 0; i < log.size(); ++i) {
      for (const rel::Value& v : log.at(i)) {
        if (!v.is_null()) continue;
        if (rel::NullFactory::NodeOf(v.null_id()) != id_) continue;
        nulls_.ReserveThrough(rel::NullFactory::SeqOf(v.null_id()) & 0xffffffu);
      }
    }
  }
  return info;
}

void Peer::AdoptTopology(const std::set<wire::Edge>& edges) {
  DependencyGraph graph(edges);
  DependencyGraph mine = graph.ReachableSubgraph(id_);
  known_edges_.insert(mine.edges().begin(), mine.edges().end());
}

std::vector<std::vector<NodeId>> Peer::MaximalPaths() const {
  return DependencyGraph(known_edges_).MaximalPathsFrom(id_);
}

std::set<NodeId> Peer::OwnScc() const {
  return DependencyGraph(known_edges_).SccOf(id_);
}

std::set<NodeId> Peer::DependencyTargets() const {
  std::set<NodeId> out;
  for (const CoordinationRule& r : rules_) {
    for (const CoordinationRule::BodyPart& p : r.body) out.insert(p.node);
  }
  return out;
}

void Peer::Send(NodeId to, net::MessageType type,
                std::vector<uint8_t> payload) {
  net::Message msg;
  msg.type = type;
  msg.from = id_;
  msg.to = to;
  msg.payload = std::move(payload);
  if (span_open_) {
    msg.trace.trace_id = active_span_.trace_id;
    msg.trace.parent_span = active_span_.span_id;
    msg.trace.hop = active_span_.hop + 1;
    ++active_span_.forwards;
  }
  runtime_->Send(std::move(msg));
}

void Peer::OpenTraceSpan(const net::TraceContext& ctx, net::MessageType type,
                         uint64_t bytes, uint64_t queue_wait) {
  active_span_ = obs::TraceSpan{};
  active_span_.trace_id = ctx.trace_id;
  active_span_.span_id = collector_->NextSpanId();
  active_span_.parent_span = ctx.parent_span;
  active_span_.hop = ctx.hop;
  active_span_.node = id_;
  active_span_.type = type;
  active_span_.recv_micros = runtime_->NowMicros();
  active_span_.queue_wait_micros = queue_wait;
  active_span_.bytes = bytes;
  span_open_ = true;
}

void Peer::CloseTraceSpan() {
  active_span_.end_micros = runtime_->NowMicros();
  span_open_ = false;
  collector_->Record(active_span_);
}

void Peer::OnMessage(const net::Message& msg) {
  // Span per traced dispatch: opened before the handler can forward (so
  // children parent correctly), closed when the handler returns. Dispatch on
  // one peer is serialized by every runtime, so plain members suffice.
  const bool traced = collector_ != nullptr && msg.trace.active();
  if (traced) {
    OpenTraceSpan(msg.trace, msg.type, msg.WireSize(), msg.queued_micros);
  }
  DispatchMessage(msg);
  if (traced) CloseTraceSpan();
}

void Peer::DispatchMessage(const net::Message& msg) {
  switch (msg.type) {
    case net::MessageType::kDiscoverRequest:
      Deliver(msg, discovery_.get(), &DiscoveryEngine::OnRequest);
      break;
    case net::MessageType::kDiscoverAnswer:
      Deliver(msg, discovery_.get(), &DiscoveryEngine::OnAnswer);
      break;
    case net::MessageType::kDiscoverClosure:
      Deliver(msg, discovery_.get(), &DiscoveryEngine::OnClosure);
      break;
    case net::MessageType::kUpdateStart:
      Deliver(msg, update_.get(), &UpdateEngine::OnUpdateStart);
      break;
    case net::MessageType::kQueryRequest:
      Deliver(msg, update_.get(), &UpdateEngine::OnQueryRequest);
      break;
    case net::MessageType::kQueryAnswer:
      Deliver(msg, update_.get(), &UpdateEngine::OnQueryAnswer);
      break;
    case net::MessageType::kUnsubscribe:
      Deliver(msg, update_.get(), &UpdateEngine::OnUnsubscribe);
      break;
    case net::MessageType::kPartialUpdate:
      Deliver(msg, update_.get(), &UpdateEngine::OnPartialUpdate);
      break;
    case net::MessageType::kToken:
      Deliver(msg, update_.get(), &UpdateEngine::OnToken);
      break;
    case net::MessageType::kSccClosed:
      if (wire::DecodePayload<wire::Empty>(msg)) update_->OnSccClosed();
      break;
    case net::MessageType::kReopen:
      if (wire::DecodePayload<wire::Empty>(msg)) update_->OnReopen();
      break;
    case net::MessageType::kAddRule:
      Deliver(msg, update_.get(), &UpdateEngine::OnAddRule);
      break;
    case net::MessageType::kDeleteRule:
      Deliver(msg, update_.get(), &UpdateEngine::OnDeleteRule);
      break;
    case net::MessageType::kBatch:
    case net::MessageType::kCredit:
      // Transport-internal frames: the runtime unpacks batches and consumes
      // credits before dispatch, so a peer never sees either.
      break;
    case net::MessageType::kBootstrap:
    case net::MessageType::kBootstrapAck:
    case net::MessageType::kStartDiscovery:
    case net::MessageType::kStartUpdate:
    case net::MessageType::kRefreshScc:
    case net::MessageType::kStatusRequest:
    case net::MessageType::kStatusReport:
    case net::MessageType::kDumpRequest:
    case net::MessageType::kDumpReply:
    case net::MessageType::kShutdown:
      // Control plane: handled by the daemon layer (src/daemon) wrapping the
      // peer's handler; a bare Peer ignores stray control traffic.
      break;
  }
}

}  // namespace p2pdb::core
