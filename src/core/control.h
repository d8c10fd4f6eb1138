// Control-plane wire protocol: the typed payloads a fleet controller (the
// super-peer process, or a driver like p2pdb_fleetctl) exchanges with remote
// peer daemons so it can drive them exactly the way an in-process Session
// drives local Peer objects. The in-process control surface — construct,
// RunDiscovery, RunUpdate, CollectStatistics — becomes an explicit protocol:
//
//   kBootstrap      controller -> peer   session handshake (name, schema,
//                                        coordination rules, endpoint table)
//   kBootstrapAck   peer -> controller   accept/reject with reason
//   kStartDiscovery controller -> peer   Peer::StartDiscovery
//   kStartUpdate    controller -> peer   Peer::StartUpdate(session)
//   kRefreshScc     controller -> peer   UpdateEngine::RefreshScc (rejoin)
//   kStatusRequest  controller -> peer   ask for the statistics row once a
//                                        named condition holds (now, discovery
//                                        closed, update closed in session s)
//   kStatusReport   peer -> controller   the paper's Section-5 statistics row,
//                                        sent by the dispatch that made the
//                                        request's condition true
//   kDumpRequest    controller -> peer   fetch the full local database
//   kDumpReply      peer -> controller   SerializeDatabase bytes
//   kShutdown       controller -> peer   graceful daemon exit
//
// All control traffic is urgent (net::IsUrgent): it bypasses the
// transport's data-plane batching, so driving a fleet never queues behind an
// update's coalesced frames. Payloads follow the same contract as the
// protocol payloads in core/wire.h: a payload's format is its field list
// (control.cc), and it is decoded whole or rejected. Dispatchers decode them
// through wire::DecodePayload.
#ifndef P2PDB_CORE_CONTROL_H_
#define P2PDB_CORE_CONTROL_H_

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/core/wire.h"
#include "src/relational/schema.h"
#include "src/util/ids.h"
#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::core::wire {

/// One row of the fleet endpoint table ("node host:port" on disk).
struct EndpointEntry {
  NodeId node = kNoNode;
  std::string host;
  uint16_t port = 0;

  bool operator==(const EndpointEntry& other) const {
    return node == other.node && host == other.host && port == other.port;
  }
};

/// Session bootstrap handshake, controller -> peer. Carries everything the
/// in-process Session constructor installs into a peer: its identity (id and
/// name, cross-checked against the daemon's config file), its relation
/// schemas (drift check against the locally parsed system file), the
/// coordination rules headed at it, and the fleet endpoint table. A daemon
/// rejects a bootstrap whose identity or schema disagrees with its config —
/// the two provisioning paths (config file, wire handshake) must agree.
struct SessionBootstrap {
  /// Controller-chosen epoch echoed in every reply, so a driver can discard
  /// stale replies from an earlier incarnation of itself.
  uint64_t epoch = 0;
  NodeId node = kNoNode;
  std::string name;
  NodeId super_peer = 0;
  std::vector<rel::RelationSchema> schema;
  std::vector<CoordinationRule> rules;
  std::vector<EndpointEntry> endpoints;

  std::vector<uint8_t> Encode() const;
  static Result<SessionBootstrap> Decode(ByteView bytes);
};

/// Bootstrap outcome, peer -> controller.
struct BootstrapAck {
  uint64_t epoch = 0;
  NodeId node = kNoNode;
  std::string name;
  bool accepted = false;
  std::string error;  // Empty when accepted.

  std::vector<uint8_t> Encode() const;
  static Result<BootstrapAck> Decode(ByteView bytes);
};

/// Peer::StartDiscovery, on the wire.
struct ControlStartDiscovery {
  uint64_t epoch = 0;

  std::vector<uint8_t> Encode() const;
  static Result<ControlStartDiscovery> Decode(ByteView bytes);
};

/// Peer::StartUpdate(session), on the wire (sent to the super-peer; the
/// update itself then floods peer-to-peer as kUpdateStart).
struct ControlStartUpdate {
  uint64_t epoch = 0;
  uint64_t session = 0;

  std::vector<uint8_t> Encode() const;
  static Result<ControlStartUpdate> Decode(ByteView bytes);
};

/// UpdateEngine::RefreshScc, on the wire — after a rejoin's re-discovery the
/// controller refreshes every peer's SCC view before starting the next
/// update session (the in-process Session::Rediscover barrier).
struct ControlRefreshScc {
  uint64_t epoch = 0;

  std::vector<uint8_t> Encode() const;
  static Result<ControlRefreshScc> Decode(ByteView bytes);
};

/// Statistics request, controller -> peer. The peer answers once `until`
/// holds: at once, or from the dispatch that closes its discovery phase or
/// its update phase in `session`. Both closures are stable (the paper's
/// closure protocol closes a node only when its sources are closed), so the
/// answer is exact and never needs to be polled for again.
struct StatusRequest {
  enum class Until : uint8_t {
    kNow = 0,
    kDiscoveryClosed = 1,
    kUpdateClosed = 2,
  };

  uint64_t epoch = 0;
  /// Controller-chosen, echoed in the report; replies are matched by id.
  uint64_t id = 0;
  Until until = Until::kNow;
  uint64_t session = 0;  // Read only for kUpdateClosed.

  std::vector<uint8_t> Encode() const;
  static Result<StatusRequest> Decode(ByteView bytes);
};

/// One peer's statistics row (the super-peer's Section-5 statistics duty):
/// phase states plus the update counters Session::CollectStatistics prints,
/// answering the StatusRequest with the same id. The controller declares the
/// update's fixpoint when every participant has answered "update closed in
/// this session".
struct StatusReport {
  uint64_t epoch = 0;
  uint64_t id = 0;  // The StatusRequest this answers.
  NodeId node = kNoNode;
  std::string name;
  uint8_t state_discovery = 0;  // core::DiscoveryEngine::State
  uint8_t state_update = 0;     // core::UpdateEngine::State
  uint64_t tuples = 0;
  uint64_t tuples_inserted = 0;
  uint64_t joins_evaluated = 0;
  uint64_t answers_sent = 0;
  uint64_t token_passes = 0;
  uint64_t reopens = 0;

  std::vector<uint8_t> Encode() const;
  static Result<StatusReport> Decode(ByteView bytes);
};

/// Database fetch, controller -> peer (convergence verification).
struct DumpRequest {
  uint64_t epoch = 0;

  std::vector<uint8_t> Encode() const;
  static Result<DumpRequest> Decode(ByteView bytes);
};

/// The peer's full local database (rel::SerializeDatabase bytes).
struct DumpReply {
  uint64_t epoch = 0;
  NodeId node = kNoNode;
  std::vector<uint8_t> database;

  std::vector<uint8_t> Encode() const;
  static Result<DumpReply> Decode(ByteView bytes);
};

/// Graceful daemon exit (fleet teardown without kill -9).
struct ControlShutdown {
  uint64_t epoch = 0;

  std::vector<uint8_t> Encode() const;
  static Result<ControlShutdown> Decode(ByteView bytes);
};

}  // namespace p2pdb::core::wire

#endif  // P2PDB_CORE_CONTROL_H_
