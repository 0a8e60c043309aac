// Shared knobs for the batched-lookup subsystem.
//
// Every batched search in the library (kary/batch_search.h,
// btree/batch_descent.h, the Seg-Trie's FindBatch) uses the same group
// software-pipelining scheme: G independent queries advance in lockstep
// one level at a time, and each query's next memory target is prefetched
// before any of them is touched, so the G per-level misses overlap in
// the memory system.
//
// G trades memory-level parallelism against register pressure and
// line-fill-buffer occupancy: one x86 core sustains roughly 10-16
// outstanding L1 misses, so groups in the 8-16 range capture most of the
// available overlap, and larger groups only add state. The default of 12
// leaves headroom for the demand loads of the searches themselves;
// bench/bb_batch_lookup sweeps the choice. A batch splits into
// ceil(n / G) groups of near-equal size (ForEachBatchGroup), so a batch
// just over a multiple of G does not end in a group of one or two
// queries with nothing to overlap. The pipelined B+-Tree engine fetches
// only the line each query's next k-ary step reads once a group is
// larger than kWholeNodePrefetchMaxGroup, and whole nodes below it.

#ifndef SIMDTREE_CORE_BATCH_H_
#define SIMDTREE_CORE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

namespace simdtree {

// Upper bound of the lockstep group size (fixed state-array dimension in
// the pipelined search loops).
inline constexpr int kMaxBatchGroup = 16;

// Default in-flight group size.
inline constexpr int kDefaultBatchGroup = 12;

inline constexpr int ClampBatchGroup(int group) {
  return group < 1 ? 1 : (group > kMaxBatchGroup ? kMaxBatchGroup : group);
}

// Largest batch whose buffers a thread keeps for its next batch. The
// batch engines keep their buffers in per-thread scratch (ShardedIndex::
// FindBatch, the grouped descent), grown to the largest batch the thread
// has run, so a warm read allocates nothing. A batch of more queries frees
// its scratch on return, so one huge batch (a whole key file, a 64K-key
// MGET) does not hold O(n) memory for the thread's lifetime. 16K is four
// times the 4096-key batches of embed-batch-16m and bounds what a thread
// keeps at about 2 MiB for uint64_t keys and values.
inline constexpr size_t kMaxRetainedBatchKeys = 16384;

// Runs fn(off, g) over a batch of n queries split into ceil(n / group)
// lockstep groups (group clamped as above) whose sizes differ by at most
// one, in order: 17 queries run as 9 + 8, not 16 + 1, so no trailing
// group is left with a query or two and nothing to overlap.
template <typename Fn>
void ForEachBatchGroup(size_t n, int group, Fn&& fn) {
  if (n == 0) return;
  const size_t cap = static_cast<size_t>(ClampBatchGroup(group));
  const size_t groups = (n + cap - 1) / cap;
  size_t off = 0;
  for (size_t k = 0; k < groups; ++k) {
    const size_t g = n / groups + (k < n % groups ? 1 : 0);
    fn(off, static_cast<int>(g));
    off += g;
  }
}

// Size of the first group ForEachBatchGroup(n, group, ...) runs; the
// groups after it are what ForEachBatchGroup(n - that, group, ...) runs.
inline size_t LeadingBatchGroup(size_t n, int group) {
  const size_t cap = static_cast<size_t>(ClampBatchGroup(group));
  const size_t groups = (n + cap - 1) / cap;
  return groups == 0 ? 0 : (n + groups - 1) / groups;
}

// Largest pipelined B+-Tree group that fetches each node whole and
// searches it with the single-key search (btree/batch_descent.h). A lone
// query or a pair has no other query's misses to overlap, so it fetches
// every key and child-ref line of its node at once; a larger group runs
// the lockstep search, fetching only the line each k-ary step reads,
// since whole-node prefetches would fill the line fill buffers. Traffic:
// 21% of kv-mix-d32's FindBatch calls carry at most 2 keys (11.6% one,
// 9.6% two; 2.9% of its keys), the same at seeds 1 and 2. Cost
// (EXPERIMENTS.md "Small pipelined groups"): on ShardedIndex::FindBatch
// over 8 shards of 16M uint64_t keys this bound reads b=1 at 1,169 and
// b=2 at 780 ns/key (medians of 10), against 1,728 and 1,024 with the
// step-wise fetch for every group; bb_batch_lookup's 128K-key SegTree-BF
// at g2 read 245 and 436 cycles per lookup in two series, against 263
// and 586.
inline constexpr int kWholeNodePrefetchMaxGroup = 2;

// Read prefetch into all cache levels. Prefetches never fault, so the
// out-of-range addresses a pruned or finished query can compute are safe
// to issue.
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 3); }

// In-level lookahead distance for the grouped descent's inner-level run
// loops: while run i's node is being searched, run i +
// kGroupedRunLookahead's node is prefetched whole. The push-time header
// prefetch covers small frontiers, but
// once a level holds more runs than the core's line fill buffers those
// early prefetches are dropped or evicted before use and the level's
// loads serialize; the lookahead re-issues each prefetch a fixed (LFB-
// sized) distance ahead of its consumer, restoring the overlap.
inline constexpr size_t kGroupedRunLookahead = 8;

// --- pipelined vs grouped descent crossover --------------------------------
//
// The grouped (level-wise) descent sorts the batch once and visits each
// frontier node once, amortizing node loads across the queries routed to
// it. The amortization only pays when the batch is large relative to the
// structure's depth: the sort is O(n) extra work and the upper levels
// only share once n exceeds their node count. Empirically (see
// bench/bb_batch_lookup and DESIGN.md "Batched traversal") the grouped
// path wins once the batch carries roughly this many queries per level;
// below it, the pipelined path's simplicity wins.
inline constexpr int kGroupedMinBatchPerLevel = 96;

// Heuristic switch shared by the wrappers and the CLI: grouped descent
// when the batch is deep enough to amortize, pipelined otherwise.
inline constexpr bool UseGroupedDescent(size_t n, int levels) {
  return levels > 0 &&
         n >= static_cast<size_t>(levels) *
                  static_cast<size_t>(kGroupedMinBatchPerLevel);
}

// Structure depth for the heuristic, duck-typed over the index families:
// trees report height(), tries report active_levels(), everything else
// defaults to 1 level.
template <typename Index>
constexpr int BatchLevels(const Index& index) {
  if constexpr (requires { index.height(); }) {
    return static_cast<int>(index.height());
  } else if constexpr (requires { index.active_levels(); }) {
    return index.active_levels();
  } else {
    return 1;
  }
}

// Whether the index exposes the grouped batched lookup (the trees and
// tries do; arbitrary wrapped indexes need not).
template <typename Index, typename K, typename V>
concept HasGroupedFindBatch =
    requires(const Index& index, const K* keys, size_t n, const V** out) {
      index.FindBatchGrouped(keys, n, out);
    };

// Whether the index exposes the optimistic-lock-coupling read paths
// (generic_btree.h "optimistic reads"): the arming call plus the
// version-validated single / batched / range reads the concurrency
// wrappers route lock-free reads through, and the pipelined batch across
// several indexes of the type (FindBatchAcross) under either policy,
// through which ShardedIndex runs one batch over all its shards.
template <typename Index, typename K, typename V>
concept HasOptimisticReads =
    requires(Index& index, const Index& cindex, K key, size_t n,
             std::optional<V>* out, const V** ptrs,
             std::vector<uint32_t>* failed,
             const Index* (*tree_of)(uint32_t)) {
      { index.EnableConcurrentReads() } -> std::convertible_to<bool>;
      cindex.FindOptimistic(key, out);
      Index::FindBatchAcross(tree_of, &key, nullptr, n, out, failed);
      Index::FindBatchAcross(tree_of, &key, nullptr, n, ptrs, failed);
      cindex.FindBatchGroupedOptimistic(&key, n, out, failed);
      { cindex.height_hint() } -> std::convertible_to<int>;
    };

// Structure depth for the optimistic batch heuristic: the lock-free
// paths must not walk the structure (height() chases child pointers
// without validation), so they use the writer-maintained atomic hint.
template <typename Index>
int OptimisticLevels(const Index& index) {
  if constexpr (requires { index.height_hint(); }) {
    return index.height_hint();
  } else {
    return 1;
  }
}

}  // namespace simdtree

#endif  // SIMDTREE_CORE_BATCH_H_
