#include "src/core/dependency.h"

#include <algorithm>
#include <functional>

#include "src/util/string_util.h"

namespace p2pdb::core {

namespace {
const std::set<NodeId> kEmptySet;
}  // namespace

DependencyGraph::DependencyGraph(const std::set<Edge>& edges) {
  for (const Edge& e : edges) AddEdge(e.first, e.second);
}

DependencyGraph DependencyGraph::FromRules(
    const std::vector<CoordinationRule>& rules) {
  DependencyGraph g;
  for (const CoordinationRule& r : rules) {
    for (const CoordinationRule::BodyPart& p : r.body) {
      g.AddEdge(r.head_node, p.node);
    }
  }
  return g;
}

void DependencyGraph::AddEdge(NodeId from, NodeId to) {
  adjacency_[from].insert(to);
  adjacency_[to];  // Ensure the target exists as a node.
  edges_.insert({from, to});
}

const std::set<NodeId>& DependencyGraph::Successors(NodeId n) const {
  auto it = adjacency_.find(n);
  return it == adjacency_.end() ? kEmptySet : it->second;
}

std::set<NodeId> DependencyGraph::Nodes() const {
  std::set<NodeId> out;
  for (const auto& [n, succs] : adjacency_) {
    out.insert(n);
    out.insert(succs.begin(), succs.end());
  }
  return out;
}

DependencyGraph DependencyGraph::ReachableSubgraph(NodeId start) const {
  DependencyGraph out;
  std::set<NodeId> visited;
  std::vector<NodeId> stack = {start};
  visited.insert(start);
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (NodeId s : Successors(n)) {
      out.AddEdge(n, s);
      if (visited.insert(s).second) stack.push_back(s);
    }
  }
  return out;
}

std::set<NodeId> DependencyGraph::ReachableFrom(NodeId start) const {
  std::set<NodeId> visited;
  std::vector<NodeId> stack = {start};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    for (NodeId s : Successors(n)) {
      if (visited.insert(s).second) stack.push_back(s);
    }
  }
  return visited;
}

std::vector<std::vector<NodeId>> DependencyGraph::MaximalPathsFrom(
    NodeId start) const {
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> path = {start};
  std::set<NodeId> on_path = {start};

  std::function<void()> dfs = [&]() {
    NodeId current = path.back();
    const std::set<NodeId>& succs = Successors(current);
    if (succs.empty()) {
      if (path.size() > 1) out.push_back(path);
      return;
    }
    for (NodeId next : succs) {
      if (on_path.count(next)) {
        // Closing a loop: the prefix stays simple, and nothing can follow
        // (Definition 6), so this extension is maximal.
        path.push_back(next);
        out.push_back(path);
        path.pop_back();
      } else {
        path.push_back(next);
        on_path.insert(next);
        dfs();
        on_path.erase(next);
        path.pop_back();
      }
    }
  };
  dfs();
  return out;
}

std::vector<std::set<NodeId>> DependencyGraph::StronglyConnectedComponents()
    const {
  // Tarjan's algorithm, iterative over the recursion via std::function (graphs
  // here are small: network-sized, not data-sized).
  std::map<NodeId, int> index, lowlink;
  std::map<NodeId, bool> on_stack;
  std::vector<NodeId> stack;
  std::vector<std::set<NodeId>> sccs;
  int next_index = 0;

  std::function<void(NodeId)> strongconnect = [&](NodeId v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (NodeId w : Successors(v)) {
      if (!index.count(w)) {
        strongconnect(w);
        lowlink[v] = std::min(lowlink[v], lowlink[w]);
      } else if (on_stack[w]) {
        lowlink[v] = std::min(lowlink[v], index[w]);
      }
    }
    if (lowlink[v] == index[v]) {
      std::set<NodeId> scc;
      NodeId w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        scc.insert(w);
      } while (w != v);
      sccs.push_back(std::move(scc));
    }
  };

  for (NodeId n : Nodes()) {
    if (!index.count(n)) strongconnect(n);
  }
  return sccs;
}

std::set<NodeId> DependencyGraph::SccOf(NodeId n) const {
  for (const std::set<NodeId>& scc : StronglyConnectedComponents()) {
    if (scc.count(n)) return scc;
  }
  return {n};
}

bool DependencyGraph::IsAcyclic() const {
  for (const std::set<NodeId>& scc : StronglyConnectedComponents()) {
    if (scc.size() > 1) return false;
    NodeId n = *scc.begin();
    if (Successors(n).count(n)) return false;  // Self-loop.
  }
  return true;
}

Result<std::vector<NodeId>> DependencyGraph::TopologicalOrder() const {
  if (!IsAcyclic()) return Status::InvalidArgument("graph is cyclic");
  // Tarjan emits SCCs in reverse topological order; with singleton SCCs that
  // is a reverse topological order of nodes.
  std::vector<NodeId> order;
  for (const std::set<NodeId>& scc : StronglyConnectedComponents()) {
    order.push_back(*scc.begin());
  }
  std::reverse(order.begin(), order.end());
  return order;
}

bool DependencyGraph::IsSeparated(const std::set<NodeId>& a,
                                  const std::set<NodeId>& b) const {
  for (NodeId n : a) {
    std::set<NodeId> reach = ReachableFrom(n);
    for (NodeId m : b) {
      if (reach.count(m)) return false;
    }
  }
  return true;
}

size_t DependencyGraph::DepthFrom(NodeId start) const {
  // Longest simple path is NP-hard on cyclic graphs (and the naive DFS is
  // factorial on cliques); report the reachable-node bound there. On DAGs a
  // memoized longest-path DFS is exact and linear.
  if (!IsAcyclic()) return ReachableFrom(start).size();
  std::map<NodeId, size_t> memo;
  std::function<size_t(NodeId)> longest = [&](NodeId n) -> size_t {
    auto it = memo.find(n);
    if (it != memo.end()) return it->second;
    size_t best = 0;
    for (NodeId next : Successors(n)) {
      best = std::max(best, 1 + longest(next));
    }
    memo[n] = best;
    return best;
  };
  return longest(start);
}

std::string DependencyGraph::ToString() const {
  std::string out;
  for (const Edge& e : edges_) {
    out += StrFormat("%u -> %u\n", e.first, e.second);
  }
  return out;
}

std::set<NodeId> UpdateParticipants(const std::vector<CoordinationRule>& rules,
                                    NodeId super_peer) {
  std::set<NodeId> out =
      DependencyGraph::FromRules(rules).ReachableFrom(super_peer);
  out.insert(super_peer);
  return out;
}

std::string PathToString(const std::vector<NodeId>& path,
                         const P2PSystem* system) {
  std::vector<std::string> names;
  for (NodeId n : path) {
    names.push_back(system != nullptr && n < system->node_count()
                        ? system->node(n).name
                        : std::to_string(n));
  }
  return JoinStrings(names, "");
}

bool RulesAreWeaklyAcyclic(const std::vector<CoordinationRule>& rules) {
  // Positions are (relation, column) pairs.
  using Position = std::pair<std::string, size_t>;
  std::set<Position> positions;
  // normal edges and special edges between positions.
  std::set<std::pair<Position, Position>> normal, special;

  for (const CoordinationRule& r : rules) {
    // Map body variable -> positions where it occurs.
    std::map<std::string, std::vector<Position>> body_positions;
    for (const CoordinationRule::BodyPart& p : r.body) {
      for (const rel::Atom& a : p.atoms) {
        for (size_t i = 0; i < a.terms.size(); ++i) {
          positions.insert({a.relation, i});
          if (a.terms[i].is_var()) {
            body_positions[a.terms[i].var].push_back({a.relation, i});
          }
        }
      }
    }
    std::vector<std::string> existentials = r.ExistentialVars();
    std::set<std::string> existential_set(existentials.begin(),
                                          existentials.end());
    for (const rel::Atom& a : r.head_atoms) {
      for (size_t i = 0; i < a.terms.size(); ++i) {
        positions.insert({a.relation, i});
        if (!a.terms[i].is_var()) continue;
        const std::string& v = a.terms[i].var;
        Position head_pos{a.relation, i};
        if (existential_set.count(v)) {
          // Special edge from every position of every frontier variable.
          for (const auto& [bv, bps] : body_positions) {
            bool frontier = false;
            for (const rel::Atom& ha : r.head_atoms) {
              for (const rel::Term& t : ha.terms) {
                if (t.is_var() && t.var == bv) frontier = true;
              }
            }
            if (!frontier) continue;
            for (const Position& bp : bps) special.insert({bp, head_pos});
          }
        } else {
          for (const Position& bp : body_positions[v]) {
            normal.insert({bp, head_pos});
          }
        }
      }
    }
  }

  // Weakly acyclic iff no cycle goes through a special edge: check, for each
  // special edge (u, v), whether u is reachable from v in the combined graph.
  std::map<Position, std::set<Position>> adj;
  for (const auto& [u, v] : normal) adj[u].insert(v);
  for (const auto& [u, v] : special) adj[u].insert(v);

  auto reachable = [&](const Position& from, const Position& target) {
    std::set<Position> visited{from};
    std::vector<Position> stack{from};
    while (!stack.empty()) {
      Position p = stack.back();
      stack.pop_back();
      if (p == target) return true;
      for (const Position& q : adj[p]) {
        if (visited.insert(q).second) stack.push_back(q);
      }
    }
    return false;
  };

  for (const auto& [u, v] : special) {
    if (reachable(v, u)) return false;
  }
  return true;
}

}  // namespace p2pdb::core
