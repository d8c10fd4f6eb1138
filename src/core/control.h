// Control-plane wire protocol: the typed payloads a fleet controller (the
// super-peer process, or a driver like p2pdb_fleetctl) exchanges with remote
// peer daemons so it can drive them exactly the way an in-process Session
// drives local Peer objects. The in-process control surface — RunDiscovery,
// RunUpdate, CollectStatistics — becomes an explicit protocol:
//
//   kBootstrap      controller -> peer   session handshake: the system digest
//                                        and the controller's reply endpoint
//   kBootstrapAck   peer -> controller   accept, or reject with the reason
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
// kStartDiscovery, kRefreshScc, kDumpRequest and kShutdown carry a
// wire::Empty payload: the type is the whole request.
//
// A payload carries only what its receiver cannot already know: a daemon's
// identity, schemas, rules and endpoint table come from its config and
// system files, so a bootstrap carries a digest of the controller's system,
// and a reply's sender is the frame header's `from`.
//
// A controller is one extra node, with the id one past the system's last
// node, so every controller of a fleet has the same id. A daemon answers the
// controller that bootstrapped it last, accepted or not: a bootstrap from a
// node that is not a system node replaces its sender's endpoint row (the
// rows of system nodes are never remapped), forgets the cached connection to
// the previous controller, and drops every status request parked for it,
// which could otherwise be answered to the new controller under a request id
// both used. Only then is the digest compared, so a rejection reaches its
// controller. Nothing on the wire names a controller incarnation.
//
// All control traffic is urgent (net::IsUrgent): it bypasses the
// transport's data-plane batching, so driving a fleet never queues behind an
// update's coalesced frames. Payloads follow the same contract as the
// protocol payloads in core/wire.h: a payload's format is its field list
// (control.cc), and it is decoded whole or rejected. Dispatchers decode them
// through wire::DecodePayload.
#ifndef P2PDB_CORE_CONTROL_H_
#define P2PDB_CORE_CONTROL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/wire.h"
#include "src/util/serde.h"
#include "src/util/status.h"

namespace p2pdb::core::wire {

/// Session bootstrap handshake, controller -> peer: daemon::SystemDigest of
/// the controller's system, which must equal the daemon's, and the endpoint
/// the daemon sends its replies to from now on.
struct SessionBootstrap {
  uint32_t system_digest = 0;
  std::string controller_host;
  uint16_t controller_port = 0;

  std::vector<uint8_t> Encode() const;
  static Result<SessionBootstrap> Decode(ByteView bytes);
};

/// Bootstrap outcome, peer -> controller: empty when accepted.
struct BootstrapAck {
  std::string error;

  std::vector<uint8_t> Encode() const;
  static Result<BootstrapAck> Decode(ByteView bytes);
};

/// Peer::StartUpdate(session), on the wire (sent to the super-peer; the
/// update itself then floods peer-to-peer as kUpdateStart).
struct ControlStartUpdate {
  uint64_t session = 0;

  std::vector<uint8_t> Encode() const;
  static Result<ControlStartUpdate> Decode(ByteView bytes);
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

  /// Controller-chosen, echoed in the report; replies are matched by id.
  uint64_t id = 0;
  Until until = Until::kNow;
  uint64_t session = 0;  // Read only for kUpdateClosed.

  std::vector<uint8_t> Encode() const;
  static Result<StatusRequest> Decode(ByteView bytes);
};

/// One peer's statistics row (the super-peer's Section-5 statistics duty):
/// phase states plus the update counters, answering the StatusRequest with
/// the same id. The controller declares the update's fixpoint when every
/// participant has answered "update closed in this session".
struct StatusReport {
  uint64_t id = 0;  // The StatusRequest this answers.
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

/// The peer's full local database (rel::SerializeDatabase bytes).
struct DumpReply {
  std::vector<uint8_t> database;

  std::vector<uint8_t> Encode() const;
  static Result<DumpReply> Decode(ByteView bytes);
};

}  // namespace p2pdb::core::wire

namespace p2pdb::core {

class Peer;

/// `peer`'s statistics row (request id 0), as daemons report it.
wire::StatusReport StatusRow(const Peer& peer);

/// The statistics table Session and p2pdb_fleetctl print: a header, then
/// `rows[i]` named `names[i]`.
std::string FormatStatistics(const std::vector<std::string>& names,
                             const std::vector<wire::StatusReport>& rows);

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_CONTROL_H_
