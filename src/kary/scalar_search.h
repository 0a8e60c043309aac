// Scalar in-node search baselines: binary search (the paper's baseline for
// every experiment) and sequential search (the classic low-fanout
// alternative, Comer '79), both with upper-bound semantics on a plain
// sorted array. A SearchCounters* `counters` adds one scalar_comparisons
// per key compare (util/counters.h); the default NoCounters adds none.

#ifndef SIMDTREE_KARY_SCALAR_SEARCH_H_
#define SIMDTREE_KARY_SCALAR_SEARCH_H_

#include <cstdint>

#include "util/counters.h"

namespace simdtree::kary {

// Index of the first key > v in sorted[0..n). Classic iterative binary
// search with a conditional branch per iteration, matching the B+-Tree
// baseline the paper measures against.
template <typename T, typename Counters = NoCounters>
int64_t BinaryUpperBound(const T* sorted, int64_t n, T v,
                         Counters counters = {}) {
  int64_t lo = 0;
  int64_t hi = n;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if constexpr (kCounting<Counters>) ++counters->scalar_comparisons;
    if (sorted[mid] > v) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Index of the first key > v in sorted[0..n) by linear scan.
template <typename T, typename Counters = NoCounters>
int64_t SequentialUpperBound(const T* sorted, int64_t n, T v,
                             Counters counters = {}) {
  int64_t i = 0;
  for (; i < n; ++i) {
    if constexpr (kCounting<Counters>) ++counters->scalar_comparisons;
    if (sorted[i] > v) break;
  }
  return i;
}

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_SCALAR_SEARCH_H_
