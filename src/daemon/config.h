// Per-peer daemon configuration: the file a p2pdb_peerd process is launched
// with. With the system file it names, it is a daemon's whole provisioning
// — who it is, where it listens, where the rest of the fleet lives, which
// system description it serves a node of, and where its durable state goes;
// a controller's bootstrap adds only its own endpoint. The fleet launcher
// (scripts/run_fleet.sh via `p2pdb_fleetctl gen`) writes one such file per
// node; re-exec'ing a crashed daemon with the same file reproduces the same
// endpoint, so the other peers' tables stay valid.
//
// Format: line-based `key value`, '#' starts a comment, blank lines ignored.
//
//   node 2                      # NodeId (must exist in the system file)
//   name C                      # node name (cross-checked against the id)
//   listen 127.0.0.1:7102       # this peer's fixed endpoint
//   system /path/to/fleet.p2p   # system description (schemas, facts, rules)
//   data_dir /path/to/peer2     # durable storage dir; omit for volatile
//   pid_file /path/to/peer2.pid # written on startup (kill -9 targeting)
//   obs_json /path/to/obs2.json # metrics dump on graceful shutdown
//   super_peer 0                # the update initiator (read by fleetctl)
//   sync nosync                 # WAL sync mode: "full" (default) | "nosync"
//   peer 0 127.0.0.1:7100       # endpoint table: one row REQUIRED per
//   peer 1 127.0.0.1:7101       # other node (this node's own is ignored)
#ifndef P2PDB_DAEMON_CONFIG_H_
#define P2PDB_DAEMON_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/net/tcp_runtime.h"
#include "src/util/ids.h"
#include "src/util/status.h"

namespace p2pdb::daemon {

/// One row of the fleet endpoint table ("peer node host:port" on disk).
struct EndpointEntry {
  NodeId node = kNoNode;
  std::string host;
  uint16_t port = 0;

  bool operator==(const EndpointEntry&) const = default;
};

/// CRC-32 of lang::PrintSystem(system), which a controller's bootstrap must
/// match. Printing is canonical: a parsed printed system digests the same.
uint32_t SystemDigest(const core::P2PSystem& system);

struct PeerdConfig {
  NodeId node = kNoNode;
  std::string name;
  net::TcpRuntime::Endpoint listen;
  std::string system_file;
  std::string data_dir;
  std::string pid_file;
  std::string obs_json;
  NodeId super_peer = 0;  // Read by `p2pdb_fleetctl drive`, not the daemon.
  /// WAL without fsync; test fleets set it so runs are not fsync-bound.
  bool no_sync = false;
  /// Endpoint table rows for the rest of the fleet.
  std::vector<EndpointEntry> peers;

  /// Parses the file format above; missing required keys (node, name,
  /// listen, system) are errors.
  static Result<PeerdConfig> Parse(const std::string& text);

  /// Reads and parses `path`.
  static Result<PeerdConfig> Load(const std::string& path);

  /// Renders back into the file format (Parse(ToString()) round-trips).
  std::string ToString() const;
};

}  // namespace p2pdb::daemon

#endif  // P2PDB_DAEMON_CONFIG_H_
