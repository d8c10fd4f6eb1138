#include "src/daemon/peer_daemon.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
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
#include "src/util/string_util.h"

namespace p2pdb::daemon {

namespace wire = core::wire;

PeerDaemon::PeerDaemon(PeerdConfig config, size_t system_nodes,
                       uint32_t digest)
    : config_(std::move(config)),
      system_nodes_(system_nodes),
      digest_(digest),
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
  // The config is the only source of the endpoint table: a node without a
  // row could never be reached.
  for (NodeId n = 0; n < system->node_count(); ++n) {
    if (n == config.node) continue;
    if (std::none_of(config.peers.begin(), config.peers.end(),
                     [n](const EndpointEntry& e) { return e.node == n; })) {
      return Status::InvalidArgument("config has no peer row for node " +
                                     std::to_string(n));
    }
  }

  auto daemon = std::unique_ptr<PeerDaemon>(new PeerDaemon(
      config, system->node_count(), SystemDigest(*system)));
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
  spec.db = system->node(cfg.node).db;
  spec.rules = &system->rules();
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

  for (const EndpointEntry& e : cfg.peers) {
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
    runtime_->stats().ExportTo(obs::Registry::Global(), "net.");
    obs::WriteObsJson(config_.obs_json, obs::Registry::Global(),
                      peer_->trace_collector());
  }
  if (!config_.pid_file.empty()) {
    std::remove(config_.pid_file.c_str());
  }
  return Status::OK();
}

Status PeerDaemon::ApplyBootstrap(NodeId sender,
                                  const wire::SessionBootstrap& bootstrap) {
  if (sender < system_nodes_) {
    return Status::InvalidArgument("bootstrap sent by system node " +
                                   std::to_string(sender) +
                                   ", not by a controller");
  }
  // The sender drives this daemon from now on, even if the digest below
  // rejects it: its row replaces the previous controller's, so the ack
  // reaches it, and what that one left parked goes, since the ids it chose
  // mean nothing to the new controller.
  runtime_->ReplaceEndpoint(
      sender, net::TcpRuntime::Endpoint{bootstrap.controller_host,
                                        bootstrap.controller_port});
  parked_.clear();
  if (bootstrap.system_digest != digest_) {
    return Status::InvalidArgument(StrFormat(
        "system digest mismatch: controller %08x, system file %08x",
        bootstrap.system_digest, digest_));
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
    wire::StatusReport row = core::StatusRow(*peer_);
    row.id = it->request.id;
    Reply(it->from, net::MessageType::kStatusReport, row.Encode());
    it = parked_.erase(it);
  }
}

void PeerDaemon::Dispatch(const net::Message& msg) {
  // Dispatch runs under the runtime's per-peer exclusion, so touching the
  // peer's engines directly here is exactly as safe as the peer's own
  // protocol dispatch.
  switch (msg.type) {
    case net::MessageType::kBootstrap: {
      auto bootstrap = wire::SessionBootstrap::Decode(msg.payload);
      Status applied = bootstrap.ok() ? ApplyBootstrap(msg.from, *bootstrap)
                                      : bootstrap.status();
      wire::BootstrapAck ack;
      if (!applied.ok()) {
        ack.error = applied.ToString();
        P2PDB_LOG(kWarn) << "rejecting bootstrap: " << ack.error;
      }
      Reply(msg.from, net::MessageType::kBootstrapAck, ack.Encode());
      return;
    }
    case net::MessageType::kStartDiscovery:
      if (wire::DecodePayload<wire::Empty>(msg)) peer_->StartDiscovery();
      return;
    case net::MessageType::kStartUpdate:
      if (auto start = wire::DecodePayload<wire::ControlStartUpdate>(msg)) {
        peer_->StartUpdate(start->session);
      }
      return;
    case net::MessageType::kRefreshScc:
      if (wire::DecodePayload<wire::Empty>(msg)) peer_->update().RefreshScc();
      return;
    case net::MessageType::kStatusRequest:
      // Answered by OnMessage once it holds, which may be right away.
      if (auto request = wire::DecodePayload<wire::StatusRequest>(msg)) {
        parked_.push_back({msg.from, std::move(*request)});
      }
      return;
    case net::MessageType::kDumpRequest: {
      if (!wire::DecodePayload<wire::Empty>(msg)) return;
      wire::DumpReply reply{rel::SerializeDatabase(peer_->db())};
      Reply(msg.from, net::MessageType::kDumpReply, reply.Encode());
      return;
    }
    case net::MessageType::kShutdown:
      if (!wire::DecodePayload<wire::Empty>(msg)) return;
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
