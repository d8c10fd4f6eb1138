// Pipes: point-to-point communication links (JXTA's pipe abstraction). The
// simulator gives every link a latency model; PipeTable holds the default
// model and per-link overrides.
#ifndef P2PDB_NET_PIPE_H_
#define P2PDB_NET_PIPE_H_

#include <map>

#include "src/util/ids.h"
#include "src/util/rng.h"

namespace p2pdb::net {

/// Latency configuration for one link (microseconds).
struct LatencyModel {
  uint64_t base_micros = 1000;
  uint64_t jitter_micros = 200;

  /// Samples base + uniform jitter.
  uint64_t Sample(Rng* rng) const;
};

/// Link latencies between unordered node pairs.
class PipeTable {
 public:
  explicit PipeTable(LatencyModel default_latency = LatencyModel{})
      : default_latency_(default_latency) {}

  /// Latency of the link a->b; per-link overrides fall back to the default
  /// model. Direction-insensitive.
  LatencyModel LatencyOf(NodeId a, NodeId b) const;
  void SetLatency(NodeId a, NodeId b, LatencyModel latency);
  void set_default_latency(LatencyModel latency) {
    default_latency_ = latency;
  }

 private:
  static std::pair<NodeId, NodeId> Key(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  LatencyModel default_latency_;
  std::map<std::pair<NodeId, NodeId>, LatencyModel> overrides_;
};

}  // namespace p2pdb::net

#endif  // P2PDB_NET_PIPE_H_
