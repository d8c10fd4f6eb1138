#include "src/core/bootstrap.h"

#include <utility>

namespace p2pdb::core {

Result<std::unique_ptr<Peer>> PeerBootstrap::Build(net::Runtime* runtime,
                                                   Spec spec) {
  const bool wants_registration = spec.config.register_with_runtime;
  // Deferred registration: on concurrent runtimes (thread/TCP) messages flow
  // the instant a peer is registered, which must not overlap Recover()
  // rebuilding the database or the first publish below.
  Peer::Config config = spec.config;
  config.register_with_runtime = false;
  auto peer = std::make_unique<Peer>(
      spec.id, std::move(spec.name),
      spec.recover ? rel::Database() : std::move(spec.db), runtime, config);
  if (spec.storage != nullptr) {
    P2PDB_RETURN_IF_ERROR(peer->AttachStorage(std::move(spec.storage)));
  }
  if (spec.rules != nullptr) {
    // Initial rules first: Recover() replays logged mid-session rule changes
    // (addLink/deleteLink) on top of them, so a rule deleted before the
    // crash stays deleted and one added mid-session reappears without
    // re-delivery. AlreadyExists is fine — re-bootstrap re-sends the table.
    for (const CoordinationRule& rule : *spec.rules) {
      if (rule.head_node != spec.id) continue;
      Status st = peer->AddInitialRule(rule);
      if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
    }
  }
  if (spec.recover) {
    auto info = peer->Recover();
    if (!info.ok()) return info.status();
  }
  // Readers switch to this peer's state in one step, and never see the
  // empty database a restarting peer is built with: until here a shared
  // store keeps serving the pre-crash table.
  peer->PublishSnapshot();
  peer->SetTraceCollector(spec.collector);
  if (wants_registration) {
    peer->Register();  // Open for business: the peer's state is in place.
    // RegisterPeer cannot fail, but delivery can be impossible anyway (a
    // socket runtime that could not bind a listener): surface that here
    // instead of letting the restarted peer silently drop everything.
    if (spec.recover) P2PDB_RETURN_IF_ERROR(runtime->PeerReady(spec.id));
  }
  return peer;
}

}  // namespace p2pdb::core
