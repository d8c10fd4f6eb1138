// Fleet provisioning and driving: the controller side of the control plane.
//
// MakeFleetConfigs turns one P2PSystem into one PeerdConfig per node (fixed
// ports, shared system file, per-node data/pid/obs paths), PickFreePorts
// reserves the ports, and FleetController is the process that plays the
// in-process Session's role against remote p2pdb_peerd daemons: bootstrap
// handshake, start discovery, start the update session, wait for the global
// fixpoint, fetch database dumps, shut the fleet down. Every wait is exact:
// each daemon is asked once per phase for its Section-5 statistics row "once
// your phase is closed", and answers from the dispatch that closes it — no
// polling, no guessing from unchanged rows. p2pdb_fleetctl and
// tests/fleet_test.cc both drive fleets through it.
#ifndef P2PDB_DAEMON_FLEET_H_
#define P2PDB_DAEMON_FLEET_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/control.h"
#include "src/core/system.h"
#include "src/daemon/config.h"
#include "src/net/tcp_runtime.h"
#include "src/relational/database.h"
#include "src/util/status.h"

namespace p2pdb::daemon {

/// Reserves `count` distinct kernel-assigned TCP ports on `host` by binding
/// ephemeral listeners, reading the assigned ports back, and closing them.
/// All sockets stay open until every port is known, so the kernel cannot
/// hand the same port out twice; the daemons' listeners set SO_REUSEADDR, so
/// the immediate rebind is safe.
Result<std::vector<uint16_t>> PickFreePorts(const std::string& host,
                                            size_t count);

/// One PeerdConfig per system node: node i listens on host:ports[i], every
/// config carries the full endpoint table, and the per-node durable state
/// lands under `root`/peer<i>. `ports` must have one entry per node.
Result<std::vector<PeerdConfig>> MakeFleetConfigs(
    const core::P2PSystem& system, const std::string& system_file,
    const std::string& root, const std::string& host,
    const std::vector<uint16_t>& ports, NodeId super_peer, bool no_sync);

/// Drives a fleet of p2pdb_peerd processes over the wire control protocol.
/// Registers itself as one extra node (id = system node_count) on its own
/// TcpRuntime, so daemon replies route back through the ordinary endpoint
/// table — the controller's row travels inside the bootstrap handshake. A
/// daemon answers whichever controller bootstrapped it last, so a new
/// controller can take over a running fleet from one that has gone.
class FleetController : public net::PeerHandler {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// Bound on each Await*/Bootstrap/Dump call.
    std::chrono::milliseconds timeout{30'000};
  };

  /// Builds and starts the controller runtime, installs `fleet` as its
  /// endpoint table and digests `system` for the bootstrap. Sends nothing:
  /// the daemons first hear from the controller when Bootstrap() runs.
  static Result<std::unique_ptr<FleetController>> Connect(
      core::P2PSystem system, const std::vector<EndpointEntry>& fleet,
      NodeId super_peer, Options options);

  ~FleetController() override;

  /// Sends the session handshake to `nodes` and waits for every ack. Any
  /// rejection (a daemon whose system file digests differently) fails the
  /// call as a ProtocolError with the daemon's reason.
  Status Bootstrap(const std::vector<NodeId>& nodes);

  /// Sends kStartDiscovery to `nodes` (no wait).
  Status StartDiscovery(const std::vector<NodeId>& nodes);

  /// Waits until every node in `nodes` has closed its discovery phase. Each
  /// request rides behind the node's kStartDiscovery on the same FIFO
  /// connection, so the answer is about the discovery just started.
  Status AwaitDiscoveryClosed(const std::vector<NodeId>& nodes);

  /// Sends kRefreshScc to `nodes`, then runs a status barrier: per-connection
  /// FIFO means a status reply proves the refresh before it was dispatched.
  Status RefreshScc(const std::vector<NodeId>& nodes);

  /// Sends kStartUpdate(session) to the super-peer; the update floods
  /// peer-to-peer from there.
  Status StartUpdate(uint64_t session);

  /// Waits until every participant of the update in `nodes` has closed its
  /// update phase in `session` — the cross-process analogue of the
  /// in-process session returning from RunUpdate. The participants are the
  /// super-peer and the nodes reachable from it over the system's rule edges
  /// (core::UpdateParticipants); each one must answer, since an SCC member
  /// closes after its ring leader. The other nodes answer at once. Fills
  /// `final_reports` (optional) with one row per node of `nodes`, in order.
  Status AwaitUpdateFixpoint(
      uint64_t session, const std::vector<NodeId>& nodes,
      std::vector<core::wire::StatusReport>* final_reports);

  /// Fetches and deserializes one peer's full local database.
  Result<rel::Database> Dump(NodeId node);

  /// Sends kShutdown to `nodes` (graceful daemon exit; no wait).
  Status SendShutdown(const std::vector<NodeId>& nodes);

  /// All fleet node ids, in id order.
  std::vector<NodeId> AllNodes() const;

  const core::P2PSystem& system() const { return system_; }

  // net::PeerHandler: collects daemon replies (runs on runtime workers) and
  // wakes the waiting call.
  void OnMessage(const net::Message& msg) override;

 private:
  using Until = core::wire::StatusRequest::Until;

  /// How often Bootstrap() re-sends to nodes that have not acked yet — a
  /// frame sent before a daemon's listener is bound is dropped, not queued.
  static constexpr std::chrono::milliseconds kBootstrapResend{250};

  FleetController(core::P2PSystem system, NodeId super_peer,
                  Options options);

  void SendControl(NodeId to, net::MessageType type,
                   std::vector<uint8_t> payload);
  std::chrono::steady_clock::time_point Deadline() const;

  /// Sends each node of `nodes` one status request with a fresh id, asking
  /// it to answer once `until(node)` holds (`session` names the update
  /// session for Until::kUpdateClosed), and waits for every answer.
  Result<std::vector<core::wire::StatusReport>> StatusRound(
      const std::vector<NodeId>& nodes,
      const std::function<Until(NodeId)>& until, uint64_t session);

  core::P2PSystem system_;
  uint32_t digest_;  // SystemDigest(system_), sent in every bootstrap.
  NodeId super_peer_;
  Options options_;
  NodeId id_;  // node_count: one past the last real node.
  std::unique_ptr<net::TcpRuntime> runtime_;

  std::mutex mutex_;
  std::condition_variable replied_;  // Notified by OnMessage.
  std::map<NodeId, core::wire::BootstrapAck> acks_;  // By sender.
  /// One entry per outstanding status request id; a report with any other
  /// id is stale and dropped.
  std::map<uint64_t, std::optional<core::wire::StatusReport>> reports_;
  uint64_t next_request_id_ = 1;
  std::map<NodeId, core::wire::DumpReply> dumps_;  // By sender.
};

}  // namespace p2pdb::daemon

#endif  // P2PDB_DAEMON_FLEET_H_
