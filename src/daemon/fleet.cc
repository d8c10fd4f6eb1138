#include "src/daemon/fleet.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "src/core/dependency.h"
#include "src/relational/snapshot.h"
#include "src/storage/storage_manager.h"
#include "src/util/logging.h"

namespace p2pdb::daemon {

namespace wire = core::wire;

Result<std::vector<uint16_t>> PickFreePorts(const std::string& host,
                                            size_t count) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  auto close_all = [&fds]() {
    for (int fd : fds) ::close(fd);
  };
  for (size_t i = 0; i < count; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      close_all();
      return Status::Internal("socket(): " + std::string(strerror(errno)));
    }
    fds.push_back(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      close_all();
      return Status::InvalidArgument("bad host '" + host + "'");
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_all();
      return Status::Internal("bind(): " + std::string(strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      close_all();
      return Status::Internal("getsockname(): " +
                              std::string(strerror(errno)));
    }
    ports.push_back(ntohs(bound.sin_port));
  }
  // Every socket stayed open until here, so the kernel handed out `count`
  // DISTINCT ports; releasing them all at once lets the daemons rebind.
  close_all();
  return ports;
}

Result<std::vector<PeerdConfig>> MakeFleetConfigs(
    const core::P2PSystem& system, const std::string& system_file,
    const std::string& root, const std::string& host,
    const std::vector<uint16_t>& ports, NodeId super_peer, bool no_sync) {
  if (ports.size() != system.node_count()) {
    return Status::InvalidArgument(
        std::to_string(system.node_count()) + "-node system but " +
        std::to_string(ports.size()) + " ports");
  }
  if (super_peer >= system.node_count()) {
    return Status::InvalidArgument("super_peer " + std::to_string(super_peer) +
                                   " is not a system node");
  }
  std::vector<wire::EndpointEntry> table;
  table.reserve(system.node_count());
  for (NodeId n = 0; n < system.node_count(); ++n) {
    table.push_back({n, host, ports[n]});
  }
  std::vector<PeerdConfig> configs;
  for (NodeId n = 0; n < system.node_count(); ++n) {
    PeerdConfig cfg;
    cfg.node = n;
    cfg.name = system.node(n).name;
    cfg.listen = {host, ports[n]};
    cfg.system_file = system_file;
    const std::string base = storage::PeerDir(root, n);
    cfg.data_dir = base;
    cfg.pid_file = base + ".pid";
    cfg.obs_json = base + ".obs.json";
    cfg.super_peer = super_peer;
    cfg.no_sync = no_sync;
    cfg.peers = table;
    configs.push_back(std::move(cfg));
  }
  return configs;
}

FleetController::FleetController(core::P2PSystem system,
                                 std::vector<wire::EndpointEntry> fleet,
                                 NodeId super_peer, Options options)
    : system_(std::move(system)),
      fleet_(std::move(fleet)),
      super_peer_(super_peer),
      options_(std::move(options)),
      id_(static_cast<NodeId>(system_.node_count())) {}

Result<std::unique_ptr<FleetController>> FleetController::Connect(
    core::P2PSystem system, std::vector<wire::EndpointEntry> fleet,
    NodeId super_peer, Options options) {
  if (fleet.size() != system.node_count()) {
    return Status::InvalidArgument(
        std::to_string(system.node_count()) + "-node system but " +
        std::to_string(fleet.size()) + " endpoint rows");
  }
  auto controller = std::unique_ptr<FleetController>(new FleetController(
      std::move(system), std::move(fleet), super_peer, std::move(options)));
  net::TcpRuntime::Options net_options;
  net_options.host = controller->options_.host;
  controller->runtime_ = std::make_unique<net::TcpRuntime>(net_options);
  controller->runtime_->RegisterPeer(controller->id_, controller.get());
  P2PDB_RETURN_IF_ERROR(controller->runtime_->PeerReady(controller->id_));
  for (const wire::EndpointEntry& e : controller->fleet_) {
    P2PDB_RETURN_IF_ERROR(controller->runtime_->AddRemoteEndpoint(
        e.node, net::TcpRuntime::Endpoint{e.host, e.port}));
  }
  // Replies are dispatched on the reactor threads that read them; the
  // controller's waits never call into the runtime.
  return controller;
}

FleetController::~FleetController() {
  if (runtime_ != nullptr) runtime_->UnregisterPeer(id_);
}

std::vector<NodeId> FleetController::AllNodes() const {
  std::vector<NodeId> nodes;
  nodes.reserve(system_.node_count());
  for (NodeId n = 0; n < system_.node_count(); ++n) nodes.push_back(n);
  return nodes;
}

void FleetController::SendControl(NodeId to, net::MessageType type,
                                  std::vector<uint8_t> payload) {
  net::Message msg;
  msg.type = type;
  msg.from = id_;
  msg.to = to;
  msg.payload = std::move(payload);
  runtime_->Send(std::move(msg));
}

std::chrono::steady_clock::time_point FleetController::Deadline() const {
  return std::chrono::steady_clock::now() + options_.timeout;
}

void FleetController::OnMessage(const net::Message& msg) {
  switch (msg.type) {
    case net::MessageType::kBootstrapAck: {
      auto ack = wire::DecodePayload<wire::BootstrapAck>(msg);
      if (!ack) return;
      std::lock_guard<std::mutex> lock(mutex_);
      acks_[ack->node] = std::move(*ack);
      replied_.notify_all();
      return;
    }
    case net::MessageType::kStatusReport: {
      auto report = wire::DecodePayload<wire::StatusReport>(msg);
      if (!report) return;
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = reports_.find(report->id);
      if (it == reports_.end()) {
        // The answer to a request whose wait already gave up.
        P2PDB_LOG(kDebug) << "dropping status report " << report->id
                          << " from " << msg.from;
        return;
      }
      it->second = std::move(*report);
      replied_.notify_all();
      return;
    }
    case net::MessageType::kDumpReply: {
      auto dump = wire::DecodePayload<wire::DumpReply>(msg);
      if (!dump) return;
      std::lock_guard<std::mutex> lock(mutex_);
      dumps_[dump->node] = std::move(*dump);
      replied_.notify_all();
      return;
    }
    default:
      P2PDB_LOG(kWarn) << "controller ignoring " << msg.ToString();
      return;
  }
}

Status FleetController::Bootstrap(const std::vector<NodeId>& nodes) {
  // The controller's own endpoint row rides along so daemons can route
  // replies back without the controller appearing in any config file.
  std::vector<wire::EndpointEntry> table = fleet_;
  table.push_back({id_, options_.host, runtime_->ListenPort(id_)});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    acks_.clear();
  }
  auto encode = [&](NodeId n) {
    wire::SessionBootstrap bootstrap;
    bootstrap.node = n;
    bootstrap.name = system_.node(n).name;
    bootstrap.super_peer = super_peer_;
    for (const rel::Relation& relation : system_.node(n).db.relations()) {
      bootstrap.schema.push_back(relation.schema());
    }
    for (const core::CoordinationRule* rule : system_.RulesWithHead(n)) {
      bootstrap.rules.push_back(*rule);
    }
    bootstrap.endpoints = table;
    return bootstrap.Encode();
  };
  // Both called with mutex_ held.
  auto rejected = [&]() -> const wire::BootstrapAck* {
    for (NodeId n : nodes) {
      auto it = acks_.find(n);
      if (it != acks_.end() && !it->second.accepted) return &it->second;
    }
    return nullptr;
  };
  auto unacked = [&] {
    std::vector<NodeId> out;
    for (NodeId n : nodes) {
      if (acks_.count(n) == 0) out.push_back(n);
    }
    return out;
  };
  const auto deadline = Deadline();
  std::vector<NodeId> missing = nodes;
  for (;;) {
    for (NodeId n : missing) {
      SendControl(n, net::MessageType::kBootstrap, encode(n));
    }
    // A bootstrap frame sent before the daemon's listener is bound is
    // dropped by the failed connect, so unacked nodes get it again every
    // kBootstrapResend: the daemon side is idempotent (re-validate, re-apply
    // endpoints, re-ack).
    std::unique_lock<std::mutex> lock(mutex_);
    replied_.wait_until(
        lock,
        std::min(deadline,
                 std::chrono::steady_clock::now() + kBootstrapResend),
        [&] { return rejected() != nullptr || unacked().empty(); });
    if (const wire::BootstrapAck* ack = rejected()) {
      return Status::ProtocolError("node " + std::to_string(ack->node) +
                                   " (" + ack->name +
                                   ") rejected bootstrap: " + ack->error);
    }
    missing = unacked();
    if (missing.empty()) return Status::OK();
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Internal("bootstrap timed out");
    }
  }
}

Result<std::vector<wire::StatusReport>> FleetController::StatusRound(
    const std::vector<NodeId>& nodes, const std::function<Until(NodeId)>& until,
    uint64_t session) {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < nodes.size(); ++i) {
      ids.push_back(next_request_id_++);
      reports_[ids.back()];
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    wire::StatusRequest request;
    request.id = ids[i];
    request.until = until(nodes[i]);
    request.session = session;
    SendControl(nodes[i], net::MessageType::kStatusRequest, request.Encode());
  }
  std::unique_lock<std::mutex> lock(mutex_);
  replied_.wait_until(lock, Deadline(), [&] {
    return std::all_of(ids.begin(), ids.end(), [&](uint64_t id) {
      return reports_[id].has_value();
    });
  });
  std::vector<wire::StatusReport> round;
  std::string silent;
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::optional<wire::StatusReport>& report = reports_[ids[i]];
    if (report.has_value()) {
      round.push_back(std::move(*report));
    } else {
      silent += " " + std::to_string(nodes[i]);
    }
    reports_.erase(ids[i]);  // A late answer is now stale.
  }
  if (!silent.empty()) {
    return Status::Internal("no status answer in time from node(s)" + silent);
  }
  return round;
}

Status FleetController::StartDiscovery(const std::vector<NodeId>& nodes) {
  for (NodeId n : nodes) {
    SendControl(n, net::MessageType::kStartDiscovery, wire::Empty{}.Encode());
  }
  return Status::OK();
}

Status FleetController::AwaitDiscoveryClosed(
    const std::vector<NodeId>& nodes) {
  auto round = StatusRound(
      nodes, [](NodeId) { return Until::kDiscoveryClosed; }, 0);
  if (!round.ok()) {
    return Status::Internal("discovery did not close: " +
                            round.status().message());
  }
  return Status::OK();
}

Status FleetController::RefreshScc(const std::vector<NodeId>& nodes) {
  for (NodeId n : nodes) {
    SendControl(n, net::MessageType::kRefreshScc, wire::Empty{}.Encode());
  }
  // Status barrier: a reply proves the refresh was dispatched first (same
  // connection, FIFO) — the cross-process Session::Rediscover barrier.
  return StatusRound(
             nodes, [](NodeId) { return Until::kNow; }, 0)
      .status();
}

Status FleetController::StartUpdate(uint64_t session) {
  SendControl(super_peer_, net::MessageType::kStartUpdate,
              wire::ControlStartUpdate{session}.Encode());
  return Status::OK();
}

Status FleetController::AwaitUpdateFixpoint(
    uint64_t session, const std::vector<NodeId>& nodes,
    std::vector<wire::StatusReport>* final_reports) {
  std::set<NodeId> participants =
      core::DependencyGraph::FromRules(system_.rules())
          .ReachableFrom(super_peer_);
  participants.insert(super_peer_);
  auto round = StatusRound(
      nodes,
      [&](NodeId n) {
        return participants.count(n) > 0 ? Until::kUpdateClosed : Until::kNow;
      },
      session);
  if (!round.ok()) {
    return Status::Internal("update session " + std::to_string(session) +
                            " did not reach fixpoint: " +
                            round.status().message());
  }
  if (final_reports != nullptr) *final_reports = std::move(*round);
  return Status::OK();
}

Result<rel::Database> FleetController::Dump(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dumps_.erase(node);
  }
  SendControl(node, net::MessageType::kDumpRequest, wire::Empty{}.Encode());
  std::unique_lock<std::mutex> lock(mutex_);
  if (!replied_.wait_until(lock, Deadline(),
                           [&] { return dumps_.count(node) > 0; })) {
    return Status::Internal("dump of node " + std::to_string(node) +
                            " timed out");
  }
  std::vector<uint8_t> database = std::move(dumps_[node].database);
  dumps_.erase(node);
  lock.unlock();
  return rel::DeserializeDatabase(database);
}

Status FleetController::SendShutdown(const std::vector<NodeId>& nodes) {
  for (NodeId n : nodes) {
    SendControl(n, net::MessageType::kShutdown, wire::Empty{}.Encode());
  }
  return Status::OK();
}

}  // namespace p2pdb::daemon
