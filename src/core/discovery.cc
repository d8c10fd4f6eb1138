#include "src/core/discovery.h"

#include "src/core/dependency.h"
#include "src/core/peer.h"
#include "src/util/logging.h"

namespace p2pdb::core {

void DiscoveryEngine::Start() {
  // A1 Discover: a node with no rules is immediately closed with no paths.
  if (peer_->rules().empty()) {
    state_ = State::kClosed;
    AdoptKnowledge({});
    return;
  }
  if (state_ == State::kUndefined) state_ = State::kDiscovery;
  Instance& inst = instances_[peer_->id()];
  if (inst.joined) return;  // Already started.
  std::set<NodeId> children = JoinInstance(&inst, peer_->id(), kNoNode);
  for (NodeId c : children) {
    wire::DiscoverRequest req{peer_->id()};
    peer_->Send(c, net::MessageType::kDiscoverRequest, req.Encode());
  }
}

void DiscoveryEngine::Reset() {
  instances_.clear();
  state_ = State::kUndefined;
}

std::set<NodeId> DiscoveryEngine::JoinInstance(Instance* inst, NodeId origin,
                                               NodeId parent) {
  inst->origin = origin;
  inst->parent = parent;
  inst->joined = true;
  std::set<NodeId> children = peer_->DependencyTargets();
  inst->pending = children;
  for (NodeId c : children) inst->edges.insert({peer_->id(), c});
  return children;
}

void DiscoveryEngine::OnRequest(NodeId from, const wire::DiscoverRequest& req) {
  Instance& inst = instances_[req.origin];
  if (inst.joined) {
    if (from == inst.parent) {
      // Duplicate of the request that made us join (at-least-once delivery).
      // A "visited" reply would make the parent treat this branch as a cycle
      // with empty edges; instead re-send the real echo if it already went
      // out, or stay silent (it will go out when the subtree completes).
      if (inst.completed) {
        wire::DiscoverAnswer ans;
        ans.origin = req.origin;
        ans.visited = false;
        ans.edges = inst.edges;
        peer_->Send(from, net::MessageType::kDiscoverAnswer, ans.Encode());
      }
      return;
    }
    // A2: the origin already flows through this node — answer right away so
    // the requester's branch does not block (cycle breaking). Eager mode
    // attaches current partial knowledge, as the paper's gossip does.
    wire::DiscoverAnswer ans;
    ans.origin = req.origin;
    ans.visited = true;
    if (peer_->config().eager_discovery_answers) ans.edges = inst.edges;
    peer_->Send(from, net::MessageType::kDiscoverAnswer, ans.Encode());
    return;
  }
  if (state_ == State::kUndefined) state_ = State::kDiscovery;
  std::set<NodeId> children = JoinInstance(&inst, req.origin, from);
  if (children.empty()) {
    // Leaf for this instance: echo immediately.
    inst.completed = true;
    wire::DiscoverAnswer ans;
    ans.origin = req.origin;
    ans.visited = false;
    peer_->Send(from, net::MessageType::kDiscoverAnswer, ans.Encode());
    // A node with no rules knows its (empty) topology completely.
    if (peer_->rules().empty() && state_ != State::kClosed) {
      state_ = State::kClosed;
      AdoptKnowledge({});
    }
    return;
  }
  for (NodeId c : children) {
    wire::DiscoverRequest fwd{req.origin};
    peer_->Send(c, net::MessageType::kDiscoverRequest, fwd.Encode());
  }
}

void DiscoveryEngine::OnAnswer(NodeId from, const wire::DiscoverAnswer& ans) {
  auto it = instances_.find(ans.origin);
  if (it == instances_.end()) {
    P2PDB_LOG(kWarn) << "discovery answer for unknown origin " << ans.origin;
    return;
  }
  Instance& inst = it->second;
  inst.edges.insert(ans.edges.begin(), ans.edges.end());
  if (!ans.visited) inst.tree_children.push_back(from);
  inst.pending.erase(from);
  if (inst.pending.empty() && !inst.completed) CompleteInstance(&inst);
}

void DiscoveryEngine::CompleteInstance(Instance* inst) {
  inst->completed = true;
  if (inst->origin == peer_->id()) {
    // The echo converged at the origin: full reachable edge set known.
    AdoptKnowledge(inst->edges);
    state_ = State::kClosed;
    wire::DiscoverClosure closure;
    closure.origin = inst->origin;
    closure.edges = inst->edges;
    for (NodeId c : inst->tree_children) {
      peer_->Send(c, net::MessageType::kDiscoverClosure, closure.Encode());
    }
    return;
  }
  wire::DiscoverAnswer ans;
  ans.origin = inst->origin;
  ans.visited = false;
  ans.edges = inst->edges;
  peer_->Send(inst->parent, net::MessageType::kDiscoverAnswer, ans.Encode());
}

void DiscoveryEngine::OnClosure(NodeId from, const wire::DiscoverClosure& msg) {
  (void)from;
  auto it = instances_.find(msg.origin);
  AdoptKnowledge(msg.edges);
  state_ = State::kClosed;
  if (it != instances_.end()) {
    wire::DiscoverClosure fwd;
    fwd.origin = msg.origin;
    fwd.edges = msg.edges;
    for (NodeId c : it->second.tree_children) {
      peer_->Send(c, net::MessageType::kDiscoverClosure, fwd.Encode());
    }
  }
}

void DiscoveryEngine::AdoptKnowledge(const std::set<wire::Edge>& all_edges) {
  peer_->AdoptTopology(all_edges);
}

}  // namespace p2pdb::core
