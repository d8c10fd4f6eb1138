// PeerDaemon: one peer as one OS process. Wraps a core::Peer built from a
// PeerdConfig (via core::PeerBootstrap — the same construction path the
// in-process Session uses), registers ITSELF as the runtime handler for the
// peer's node id, and intercepts the control-plane message types
// (src/core/control.h) a fleet controller drives it with; everything else is
// forwarded untouched to the peer's normal protocol dispatch. A status
// request whose condition does not hold yet is parked and answered by the
// dispatch that makes it true, so the controller never polls. The config
// file is authoritative for identity, endpoint, schema and rules — a wire
// bootstrap is validated against it (and applies the endpoint table), so the
// two provisioning paths cannot silently disagree.
//
// Startup picks fresh-vs-recover by looking at the data directory's log: no
// base record yet (no log, or a base torn by a crash) means first boot (seed
// the durable base from the system file's initial database), a base record
// means this process is a re-exec of a crashed daemon and the peer replays
// its log before the listener accepts a single frame.
#ifndef P2PDB_DAEMON_PEER_DAEMON_H_
#define P2PDB_DAEMON_PEER_DAEMON_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/control.h"
#include "src/core/peer.h"
#include "src/core/system.h"
#include "src/daemon/config.h"
#include "src/net/tcp_runtime.h"
#include "src/util/status.h"

namespace p2pdb::daemon {

class PeerDaemon : public net::PeerHandler {
 public:
  /// Builds the full stack: parse the system file, open (and maybe recover
  /// from) storage, bind the configured listen endpoint, install the
  /// config's endpoint table, and write the pid file. On return the peer is
  /// registered and serving.
  static Result<std::unique_ptr<PeerDaemon>> Start(PeerdConfig config);

  ~PeerDaemon() override;

  /// Blocks until a kShutdown control frame (or RequestStop) arrives; the
  /// runtime's reactor threads dispatch every message meanwhile. On exit
  /// writes the obs_json dump (when configured) and removes the pid file.
  Status Serve();

  /// Stop request: one write(2) to the eventfd Serve() blocks on, so it is
  /// async-signal-safe (SIGTERM/SIGINT handlers call it).
  void RequestStop();

  // net::PeerHandler: control plane here, protocol to the peer. Ends by
  // answering every parked status request the dispatch made true.
  void OnMessage(const net::Message& msg) override;

  core::Peer& peer() { return *peer_; }
  net::TcpRuntime& runtime() { return *runtime_; }
  const PeerdConfig& config() const { return config_; }

 private:
  PeerDaemon(PeerdConfig config, core::P2PSystem system);

  /// Validates a decoded bootstrap against the config/system file and
  /// applies its endpoint table. Returns the rejection reason, or OK.
  Status ApplyBootstrap(const core::wire::SessionBootstrap& bootstrap);

  /// Sends one control reply back to `to` (urgent, as every control type is).
  void Reply(NodeId to, net::MessageType type, std::vector<uint8_t> payload);

  /// OnMessage without the parked-request check.
  void Dispatch(const net::Message& msg);

  /// Whether `request`'s condition holds at this peer now.
  bool Holds(const core::wire::StatusRequest& request) const;

  /// This peer's statistics row, answering request `request_id`.
  core::wire::StatusReport StatusRow(uint64_t request_id) const;

  /// A status request waiting for its condition, and who asked.
  struct ParkedRequest {
    NodeId from = kNoNode;
    core::wire::StatusRequest request;
  };

  PeerdConfig config_;
  core::P2PSystem system_;
  std::unique_ptr<net::TcpRuntime> runtime_;
  std::unique_ptr<core::Peer> peer_;
  int stop_fd_ = -1;  // eventfd: RequestStop writes it, Serve reads it.
  /// Last controller epoch seen, echoed into replies so a driver can discard
  /// replies provoked by an earlier incarnation of itself.
  std::atomic<uint64_t> epoch_{0};
  /// Touched only inside OnMessage, i.e. in the peer's serialization domain.
  std::vector<ParkedRequest> parked_;
};

}  // namespace p2pdb::daemon

#endif  // P2PDB_DAEMON_PEER_DAEMON_H_
