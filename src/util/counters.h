// Lightweight search instrumentation.
//
// The paper argues complexity in terms of node accesses and comparisons:
// a B+-Tree search costs one node per level with log2(N_L) scalar
// comparisons inside each node; a Seg-Tree node costs r SIMD comparisons
// (one per k-ary level); a 64-bit Seg-Trie search costs at most
// ceil(log17 2^64) = 16 SIMD comparisons and may terminate above leaf
// level on a missing segment (Section 4). Counted searches fill this
// struct so tests can assert those counts exactly.

#ifndef SIMDTREE_UTIL_COUNTERS_H_
#define SIMDTREE_UTIL_COUNTERS_H_

#include <cstdint>
#include <type_traits>

namespace simdtree {

struct SearchCounters {
  uint64_t nodes_visited = 0;      // tree/trie nodes touched (logical)
  uint64_t simd_comparisons = 0;   // k-ary SIMD compare steps
  uint64_t scalar_comparisons = 0; // binary/sequential compare steps
  // Distinct physical node loads. The pipelined batch paths leave this 0
  // (they load one node per query per level, nodes_visited tells the
  // story); the grouped descent paths count each frontier node once, so
  // nodes_visited / nodes_loaded is the per-level sharing factor.
  uint64_t nodes_loaded = 0;

  void Reset() { *this = SearchCounters{}; }
};

// The in-node searches (kary/kary_search.h, kary/scalar_search.h and
// the key stores) take their counters as a template argument: a
// SearchCounters* instantiates the search with one tick per comparison,
// and the default NoCounters instantiates it with none. NoCounters is
// empty, so an uncounted call passes no argument at all; it converts to
// the null SearchCounters* the registry slots (kary/dispatch_kernels.h)
// take.
struct NoCounters {
  operator SearchCounters*() const { return nullptr; }
};

template <typename Counters>
inline constexpr bool kCounting = !std::is_same_v<Counters, NoCounters>;

}  // namespace simdtree

#endif  // SIMDTREE_UTIL_COUNTERS_H_
