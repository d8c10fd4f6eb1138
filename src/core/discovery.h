// Topology discovery (algorithms A1-A3): a diffusing computation per origin.
//
// The super-peer (or any node) starts an instance; requests flood along
// dependency edges; a node already in the instance answers a duplicate request
// immediately ("visited"); answers aggregate edge sets up the request tree.
// When the origin's echo completes it holds the complete set of dependency
// edges reachable from it and broadcasts a closure message down the request
// tree: every participant stores the restriction reachable from itself,
// derives its maximal dependency paths (Definitions 6-7) and sets
// state_d = closed.
//
// Relative to the paper's pseudocode this replaces the repeated processAnswer
// gossip with a deterministic two-phase echo + closure; the optional eager
// mode re-attaches current partial edge knowledge to duplicate answers, which
// reproduces the paper's extra asynchronous messages without changing the
// final state (ablation A3 measures the difference).
#ifndef P2PDB_CORE_DISCOVERY_H_
#define P2PDB_CORE_DISCOVERY_H_

#include <map>
#include <set>
#include <vector>

#include "src/core/wire.h"
#include "src/util/ids.h"

namespace p2pdb::core {

class Peer;

class DiscoveryEngine {
 public:
  /// state_d in the paper: undefined until a node participates, `discovery`
  /// while its knowledge is incomplete, `closed` when complete.
  enum class State { kUndefined, kDiscovery, kClosed };

  explicit DiscoveryEngine(Peer* peer) : peer_(peer) {}

  /// A1 Discover: starts an instance with this node as origin. A no-op at
  /// a node whose own instance has already started, until Reset().
  void Start();

  /// Forgets every instance and returns to kUndefined, while no discovery
  /// message is in flight. The peer's topology knowledge stays.
  void Reset();

  void OnRequest(NodeId from, const wire::DiscoverRequest& req);
  void OnAnswer(NodeId from, const wire::DiscoverAnswer& ans);
  void OnClosure(NodeId from, const wire::DiscoverClosure& closure);

  State state() const { return state_; }

 private:
  struct Instance {
    NodeId origin = kNoNode;
    NodeId parent = kNoNode;  // first requester; kNoNode when self-origin
    bool joined = false;
    bool completed = false;
    std::set<NodeId> pending;         // children awaiting first answer
    std::vector<NodeId> tree_children;  // children that answered visited=false
    std::set<wire::Edge> edges;       // accumulated below this node
  };

  /// Enters instance `origin`; returns the set of direct dependency targets.
  std::set<NodeId> JoinInstance(Instance* inst, NodeId origin, NodeId parent);

  /// Subtree finished: echo to the parent, or (at the origin) finish and
  /// broadcast the closure wave.
  void CompleteInstance(Instance* inst);

  /// Installs complete knowledge at this node: restrict `all_edges` to what is
  /// reachable from here, recompute maximal paths, set state_d = closed.
  void AdoptKnowledge(const std::set<wire::Edge>& all_edges);

  Peer* peer_;
  State state_ = State::kUndefined;
  std::map<NodeId, Instance> instances_;
};

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_DISCOVERY_H_
