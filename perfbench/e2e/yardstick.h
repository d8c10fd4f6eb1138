// The yardstick: a fixed piece of CPU and memory work that shares nothing
// with the program under test, timed on the calling thread. The benchmark
// runs it on a CPU just before timing work on the same CPU and reports that
// work's time as a multiple of the yardstick's ("ref" units).
//
// Why: the benchmark shares its host with other tenants, and the speed of a
// CPU changes with their load by 5 % to 2x over seconds to minutes. A time in
// milliseconds then measures the host as much as the program. Measured right
// next to each other on one CPU, the program and the yardstick slow down
// together, so their ratio moves with the program only (see
// perfbench/README.md for the measured spreads).
//
// The work resembles the program's: ordered-map inserts and lookups on short
// string keys and a sort, on a working set that fits the CPU's private cache.
// It must never change once baselines exist, or every ratio changes with it.
#ifndef P2PDB_PERFBENCH_E2E_YARDSTICK_H_
#define P2PDB_PERFBENCH_E2E_YARDSTICK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/e2e/layers.h"

namespace p2pdb::perfbench {

/// Runs the yardstick once; returns its wall time in microseconds.
inline double YardstickUs() {
  constexpr int kKeys = 4000;
  constexpr size_t kSorted = 40'000;
  const uint64_t start = NowNs();
  std::map<std::string, int> map;
  for (int i = 0; i < kKeys; ++i) {
    map["key" + std::to_string(i * 7919 % 20011)] = i;
  }
  int64_t hits = 0;
  for (int i = 0; i < kKeys; ++i) hits += map.count("key" + std::to_string(i));
  std::vector<uint32_t> values(kSorted);
  for (size_t i = 0; i < kSorted; ++i) {
    values[i] = static_cast<uint32_t>(i * 2654435761u % 1000003u);
  }
  std::sort(values.begin(), values.end());
  // Hands the result to an empty asm statement, so the compiler cannot drop
  // the work that produced it.
  const int64_t result = hits + values[kSorted / 2];
  asm volatile("" : : "r"(result) : "memory");
  return static_cast<double>(NowNs() - start) / 1e3;
}

}  // namespace p2pdb::perfbench

#endif  // P2PDB_PERFBENCH_E2E_YARDSTICK_H_
