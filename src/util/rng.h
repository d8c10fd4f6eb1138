// Seeded pseudo-random generator used by workload generation and latency
// models.
#ifndef P2PDB_UTIL_RNG_H_
#define P2PDB_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace p2pdb {

/// SplitMix64-based deterministic RNG. Same seed => same sequence on all
/// platforms, which keeps experiments reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound) (bound > 0).
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Returns true with the given probability in [0, 1].
  bool NextBool(double probability);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Derives an independent child generator (for per-node streams).
  Rng Fork();

 private:
  uint64_t state_;
};

}  // namespace p2pdb

#endif  // P2PDB_UTIL_RNG_H_
