#include "src/daemon/peer_daemon.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/bootstrap.h"
#include "src/core/discovery.h"
#include "src/core/update.h"
#include "src/lang/parser.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/relational/snapshot.h"
#include "src/storage/storage_manager.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"

namespace p2pdb::daemon {

namespace wire = core::wire;

PeerDaemon::PeerDaemon(PeerdConfig config, core::P2PSystem system)
    : config_(std::move(config)),
      system_(std::move(system)),
      stop_fd_(::eventfd(0, EFD_CLOEXEC)) {}

Result<std::unique_ptr<PeerDaemon>> PeerDaemon::Start(PeerdConfig config) {
  std::string text;
  P2PDB_RETURN_IF_ERROR(ReadFile(config.system_file, &text));
  auto system = lang::ParseSystem(text);
  if (!system.ok()) return system.status();
  if (config.node >= system->node_count()) {
    return Status::InvalidArgument(
        "config node " + std::to_string(config.node) +
        " does not exist in " + config.system_file);
  }
  const core::NodeInfo& info = system->node(config.node);
  if (info.name != config.name) {
    return Status::InvalidArgument(
        "config names node " + std::to_string(config.node) + " '" +
        config.name + "' but the system file says '" + info.name + "'");
  }

  auto daemon =
      std::unique_ptr<PeerDaemon>(new PeerDaemon(config, std::move(*system)));
  if (daemon->stop_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  const PeerdConfig& cfg = daemon->config_;

  net::TcpRuntime::Options net_options;
  net_options.host = cfg.listen.host;
  net_options.listen_port = cfg.listen.port;
  daemon->runtime_ = std::make_unique<net::TcpRuntime>(net_options);

  // Fresh boot vs re-exec: a base record in the log means a previous
  // incarnation of this process already established the durable base, so
  // the peer must recover its state instead of reseeding from the system
  // file (which would silently discard everything propagated pre-crash).
  core::PeerBootstrap::Spec spec;
  if (!cfg.data_dir.empty()) {
    storage::StorageOptions options;
    options.dir = cfg.data_dir;
    options.sync =
        cfg.no_sync ? storage::SyncMode::kNoSync : storage::SyncMode::kSync;
    auto storage = storage::StorageManager::Open(options);
    if (!storage.ok()) return storage.status();
    spec.recover = (*storage)->HasBase();
    spec.storage = std::move(*storage);
  }
  const bool recovered = spec.recover;
  spec.id = cfg.node;
  spec.name = cfg.name;
  spec.db = daemon->system_.node(cfg.node).db;
  spec.rules = &daemon->system_.rules();
  // The DAEMON is the registered handler (it must see control frames), so
  // the peer itself never registers; registration happens below.
  spec.config.register_with_runtime = false;
  auto peer = core::PeerBootstrap::Build(daemon->runtime_.get(),
                                         std::move(spec));
  if (!peer.ok()) return peer.status();
  daemon->peer_ = std::move(*peer);

  daemon->runtime_->RegisterPeer(cfg.node, daemon.get());
  P2PDB_RETURN_IF_ERROR(daemon->runtime_->PeerReady(cfg.node));
  uint16_t bound = daemon->runtime_->ListenPort(cfg.node);
  if (cfg.listen.port != 0 && bound != cfg.listen.port) {
    return Status::Internal("bound port " + std::to_string(bound) +
                            " instead of configured " +
                            std::to_string(cfg.listen.port));
  }

  for (const wire::EndpointEntry& e : cfg.peers) {
    if (e.node == cfg.node) continue;  // Own row: the listener owns it.
    P2PDB_RETURN_IF_ERROR(daemon->runtime_->AddRemoteEndpoint(
        e.node, net::TcpRuntime::Endpoint{e.host, e.port}));
  }

  if (!cfg.pid_file.empty()) {
    P2PDB_RETURN_IF_ERROR(
        WriteFile(cfg.pid_file, std::to_string(::getpid()) + "\n"));
  }

  P2PDB_LOG(kInfo) << "p2pdb_peerd node " << cfg.node << " (" << cfg.name
                   << ") serving on " << cfg.listen.host << ":" << bound
                   << (recovered ? " (recovered from " + cfg.data_dir + ")"
                                 : "");
  return daemon;
}

PeerDaemon::~PeerDaemon() {
  // Detach before any member dies. A dispatch may still be inside OnMessage:
  // the kShutdown frame's own, whose RequestStop already let Serve return.
  // UnregisterPeer waits it out.
  if (runtime_ != nullptr) runtime_->UnregisterPeer(config_.node);
  if (stop_fd_ >= 0) ::close(stop_fd_);
}

void PeerDaemon::RequestStop() {
  const uint64_t one = 1;
  // Nothing to do on failure: only a full counter fails, and then a stop
  // is already pending.
  (void)!::write(stop_fd_, &one, sizeof(one));
}

Status PeerDaemon::Serve() {
  // The reactor threads dispatch every message, control frames included;
  // this thread only waits for a stop request.
  uint64_t requests = 0;
  while (::read(stop_fd_, &requests, sizeof(requests)) < 0) {
    if (errno != EINTR) {
      return Status::Internal(std::string("stop eventfd: ") +
                              std::strerror(errno));
    }
  }
  if (!config_.obs_json.empty()) {
    obs::WriteObsJson(config_.obs_json, obs::Registry::Global(),
                      peer_->trace_collector());
  }
  if (!config_.pid_file.empty()) {
    std::remove(config_.pid_file.c_str());
  }
  return Status::OK();
}

Status PeerDaemon::ApplyBootstrap(const wire::SessionBootstrap& bootstrap) {
  if (bootstrap.node != config_.node || bootstrap.name != config_.name) {
    return Status::InvalidArgument(
        "bootstrap is for node " + std::to_string(bootstrap.node) + " '" +
        bootstrap.name + "', this daemon is node " +
        std::to_string(config_.node) + " '" + config_.name + "'");
  }
  if (bootstrap.super_peer != config_.super_peer) {
    return Status::InvalidArgument(
        "bootstrap names super-peer " + std::to_string(bootstrap.super_peer) +
        ", config says " + std::to_string(config_.super_peer));
  }
  // Schema drift check: every relation the controller believes this node
  // serves must exist here with the same attributes. The local system file
  // stays authoritative — a mismatch is a provisioning error, not something
  // to paper over by mutating the live database.
  const rel::Database& db = system_.node(config_.node).db;
  for (const rel::RelationSchema& schema : bootstrap.schema) {
    const rel::RelationId relation = db.Find(schema.name());
    if (relation == rel::kNoRelation ||
        !(db.relation(relation).schema() == schema)) {
      return Status::InvalidArgument("schema drift on relation '" +
                                     schema.name() + "'");
    }
  }
  // Rule drift check (validate, do not install: a rule the update plane
  // legitimately deleted mid-session must not be resurrected by a re-sent
  // bootstrap — recovery replays such deletions from the WAL).
  for (const core::CoordinationRule& rule : bootstrap.rules) {
    auto known = system_.RuleById(rule.id);
    if (!known.ok() || (*known)->head_node != config_.node) {
      return Status::InvalidArgument("bootstrap rule '" + rule.id +
                                     "' is unknown to the system file");
    }
  }
  for (const wire::EndpointEntry& e : bootstrap.endpoints) {
    if (e.node == config_.node) continue;
    // Idempotent re-adds are fine; a conflicting remap rejects the
    // bootstrap (AddRemoteEndpoint refuses and keeps the table intact).
    P2PDB_RETURN_IF_ERROR(runtime_->AddRemoteEndpoint(
        e.node, net::TcpRuntime::Endpoint{e.host, e.port}));
  }
  return Status::OK();
}

void PeerDaemon::Reply(NodeId to, net::MessageType type,
                       std::vector<uint8_t> payload) {
  net::Message msg;
  msg.type = type;
  msg.from = config_.node;
  msg.to = to;
  msg.payload = std::move(payload);
  runtime_->Send(std::move(msg));
}

bool PeerDaemon::Holds(const wire::StatusRequest& request) const {
  switch (request.until) {
    case wire::StatusRequest::Until::kNow:
      return true;
    case wire::StatusRequest::Until::kDiscoveryClosed:
      return peer_->discovery().state() ==
             core::DiscoveryEngine::State::kClosed;
    case wire::StatusRequest::Until::kUpdateClosed:
      return peer_->update().state() == core::UpdateEngine::State::kClosed &&
             peer_->update().session() == request.session;
  }
  return false;
}

void PeerDaemon::OnMessage(const net::Message& msg) {
  Dispatch(msg);
  // The reply to a parked request leaves from the dispatch that made its
  // condition true — a closure is answered the moment it happens.
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (!Holds(it->request)) {
      ++it;
      continue;
    }
    Reply(it->from, net::MessageType::kStatusReport,
          StatusRow(it->request.id).Encode());
    it = parked_.erase(it);
  }
}

wire::StatusReport PeerDaemon::StatusRow(uint64_t request_id) const {
  wire::StatusReport report;
  report.epoch = epoch_.load();
  report.id = request_id;
  report.node = config_.node;
  report.name = config_.name;
  report.state_discovery = static_cast<uint8_t>(peer_->discovery().state());
  report.state_update = static_cast<uint8_t>(peer_->update().state());
  report.tuples = peer_->db().TotalTuples();
  const core::UpdateEngine::Stats& stats = peer_->update().stats();
  report.tuples_inserted = stats.tuples_inserted;
  report.joins_evaluated = stats.joins_evaluated;
  report.answers_sent = stats.answers_sent;
  report.token_passes = stats.token_passes;
  report.reopens = stats.reopens;
  return report;
}

void PeerDaemon::Dispatch(const net::Message& msg) {
  // Dispatch runs under the runtime's per-peer exclusion, so touching the
  // peer's engines directly here is exactly as safe as the peer's own
  // protocol dispatch.
  switch (msg.type) {
    case net::MessageType::kBootstrap: {
      auto bootstrap = wire::SessionBootstrap::Decode(msg.payload);
      wire::BootstrapAck ack;
      ack.node = config_.node;
      ack.name = config_.name;
      if (!bootstrap.ok()) {
        ack.epoch = epoch_.load();
        ack.accepted = false;
        ack.error = bootstrap.status().ToString();
      } else {
        epoch_.store(bootstrap->epoch);
        ack.epoch = bootstrap->epoch;
        Status applied = ApplyBootstrap(*bootstrap);
        ack.accepted = applied.ok();
        if (!applied.ok()) ack.error = applied.ToString();
      }
      if (!ack.accepted) {
        P2PDB_LOG(kWarn) << "rejecting bootstrap: " << ack.error;
      }
      Reply(msg.from, net::MessageType::kBootstrapAck, ack.Encode());
      return;
    }
    case net::MessageType::kStartDiscovery:
      if (wire::DecodePayload<wire::ControlStartDiscovery>(msg)) {
        peer_->StartDiscovery();
      }
      return;
    case net::MessageType::kStartUpdate:
      if (auto start = wire::DecodePayload<wire::ControlStartUpdate>(msg)) {
        peer_->StartUpdate(start->session);
      }
      return;
    case net::MessageType::kRefreshScc:
      if (wire::DecodePayload<wire::ControlRefreshScc>(msg)) {
        peer_->update().RefreshScc();
      }
      return;
    case net::MessageType::kStatusRequest:
      // Answered by OnMessage once it holds, which may be right away.
      if (auto request = wire::DecodePayload<wire::StatusRequest>(msg)) {
        parked_.push_back({msg.from, std::move(*request)});
      }
      return;
    case net::MessageType::kDumpRequest: {
      if (!wire::DecodePayload<wire::DumpRequest>(msg)) return;
      wire::DumpReply reply;
      reply.epoch = epoch_.load();
      reply.node = config_.node;
      reply.database = rel::SerializeDatabase(peer_->db());
      Reply(msg.from, net::MessageType::kDumpReply, reply.Encode());
      return;
    }
    case net::MessageType::kShutdown:
      if (!wire::DecodePayload<wire::ControlShutdown>(msg)) return;
      P2PDB_LOG(kInfo) << "node " << config_.node
                       << ": shutdown requested by node " << msg.from;
      RequestStop();
      return;
    default:
      peer_->OnMessage(msg);
      return;
  }
}

}  // namespace p2pdb::daemon
