// Dependency edges and paths (Definitions 5-7) plus the graph analyses the
// protocol needs: reachability, strongly connected components (used by the
// update engine's fix-point detection), topological order (acyclic baseline),
// weak-acyclicity of the rule set (chase termination), and separation
// (Definition 10).
#ifndef P2PDB_CORE_DEPENDENCY_H_
#define P2PDB_CORE_DEPENDENCY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/util/ids.h"

namespace p2pdb::core {

/// A directed edge i -> j meaning node i has a rule whose body involves j
/// (data flows j -> i; the dependency edge points the other way, Def. 5).
using Edge = std::pair<NodeId, NodeId>;

/// The dependency graph of a P2P system (or of a node's local knowledge).
class DependencyGraph {
 public:
  DependencyGraph() = default;
  explicit DependencyGraph(const std::set<Edge>& edges);

  /// Builds the graph from a rule set: one edge head->bodynode per rule part.
  static DependencyGraph FromRules(const std::vector<CoordinationRule>& rules);

  void AddEdge(NodeId from, NodeId to);
  const std::set<Edge>& edges() const { return edges_; }
  const std::set<NodeId>& Successors(NodeId n) const;
  std::set<NodeId> Nodes() const;

  /// Restriction of this graph to edges reachable from `start` (what a node
  /// learns in the discovery phase).
  DependencyGraph ReachableSubgraph(NodeId start) const;

  /// All nodes reachable from `start` (excluding `start` unless on a cycle).
  std::set<NodeId> ReachableFrom(NodeId start) const;

  /// Maximal dependency paths from `start` (Definition 7): simple-prefix paths
  /// that cannot be extended. A path may end by revisiting a node already on
  /// it (closing a loop) or at a node with no outgoing edges. Paths include
  /// the start node as the first element.
  std::vector<std::vector<NodeId>> MaximalPathsFrom(NodeId start) const;

  /// Strongly connected components, each a sorted node set, in reverse
  /// topological order of the condensation (Tarjan).
  std::vector<std::set<NodeId>> StronglyConnectedComponents() const;

  /// The SCC containing `n` (singleton {n} if n is isolated).
  std::set<NodeId> SccOf(NodeId n) const;

  bool IsAcyclic() const;

  /// A topological order of nodes such that every edge goes from earlier to
  /// later; fails if the graph is cyclic.
  Result<std::vector<NodeId>> TopologicalOrder() const;

  /// Definition 10.1: `a` is separated from `b` iff no dependency path from a
  /// node in `a` involves a node in `b` — equivalently, nothing in `b` is
  /// reachable from `a`.
  bool IsSeparated(const std::set<NodeId>& a, const std::set<NodeId>& b) const;

  /// Depth of the graph from `start`: length (in edges) of the longest simple
  /// path from start. Used to verify the time-linear-in-depth experiment.
  size_t DepthFrom(NodeId start) const;

  std::string ToString() const;

 private:
  std::map<NodeId, std::set<NodeId>> adjacency_;
  std::set<Edge> edges_;
};

/// The participants of an update from `super_peer`: itself and every node
/// reachable from it over the dependency edges of `rules`.
std::set<NodeId> UpdateParticipants(const std::vector<CoordinationRule>& rules,
                                    NodeId super_peer);

/// Formats a path as "A.B.C" using node names from `system` (or ids when null).
std::string PathToString(const std::vector<NodeId>& path,
                         const P2PSystem* system);

/// Weak acyclicity of a rule set (standard chase-termination criterion):
/// build the position graph over (relation, column) pairs with normal edges
/// for copied variables and special edges from frontier-variable positions to
/// existential positions; weakly acyclic iff no cycle passes through a special
/// edge. Weakly acyclic rule sets cannot hit the chase depth bound.
bool RulesAreWeaklyAcyclic(const std::vector<CoordinationRule>& rules);

}  // namespace p2pdb::core

#endif  // P2PDB_CORE_DEPENDENCY_H_
