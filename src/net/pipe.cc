#include "src/net/pipe.h"

namespace p2pdb::net {

uint64_t LatencyModel::Sample(Rng* rng) const {
  if (jitter_micros == 0 || rng == nullptr) return base_micros;
  return base_micros + rng->NextBelow(jitter_micros + 1);
}

LatencyModel PipeTable::LatencyOf(NodeId a, NodeId b) const {
  auto it = overrides_.find(Key(a, b));
  return it == overrides_.end() ? default_latency_ : it->second;
}

void PipeTable::SetLatency(NodeId a, NodeId b, LatencyModel latency) {
  overrides_[Key(a, b)] = latency;
}

}  // namespace p2pdb::net
