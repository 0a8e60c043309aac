// Batched k-ary SIMD search with group software pipelining.
//
// A single k-ary descent is latency-bound once the linearized array
// outgrows the caches: every level is one dependent cache (and possibly
// TLB) miss, and the SIMD work per node is too small to hide it (the
// paper's Section 5.4 LLC-miss-bound regime). Batched lookups exploit
// *inter-query* parallelism instead: a group of G independent probes
// descends in lockstep, one level at a time, and each probe's next node
// is prefetched before any of them is touched — so the G misses of a
// level overlap in the memory system instead of serializing.
//
// G trades memory-level parallelism against register pressure and
// line-fill-buffer occupancy: modern x86 cores sustain 10-16 outstanding
// L1 misses, so G in the 8-16 range captures most of the available
// overlap (kDefaultBatchGroup). Group state lives in fixed arrays sized
// kMaxBatchGroup so the compiler can keep the G broadcast probe
// registers and positions live across the level loop.
//
// The per-level comparison is CompareNodeBatch: G independent
// load/compare/movemask chains issued back to back (no dependencies
// between probes), then G bitmask evaluations, reusing the existing
// Eval policies (bitmask_eval.h) unchanged.
//
// Results are bit-identical to the single-query UpperBoundBf/Df loops in
// kary_search.h for every layout, eval policy, and backend — the batch
// layer changes the schedule, never the answer.

#ifndef SIMDTREE_KARY_BATCH_SEARCH_H_
#define SIMDTREE_KARY_BATCH_SEARCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/batch.h"
#include "core/batch_sort.h"
#include "kary/kary_search.h"
#include "kary/layout.h"
#include "simd/bitmask_eval.h"
#include "simd/simd128.h"
#include "simd/simd256.h"

namespace simdtree::kary {

// Multi-probe comparison step: g simultaneous node probes, each against
// its own live broadcast register. The g load/compare/movemask chains are
// mutually independent, so the out-of-order core overlaps their cache
// misses; the mask evaluations run after all loads are issued.
template <typename T, typename Eval, simd::Backend B, int kBits>
inline void CompareNodeBatch(
    const T* const* key_ptrs,
    const typename simd::Ops<T, B, kBits>::Reg* probes, int g, int* out) {
  using Ops = simd::Ops<T, B, kBits>;
  typename simd::LaneTraits<T, kBits>::Mask masks[kMaxBatchGroup];
  for (int i = 0; i < g; ++i) {
    const auto node = Ops::LoadUnaligned(key_ptrs[i]);
    masks[i] = Ops::MoveMask(Ops::CmpGt(node, probes[i]));
  }
  for (int i = 0; i < g; ++i) {
    out[i] = Eval::template Position<T, kBits>(masks[i]);
  }
}

// Group-pipelined Algorithm 5 (breadth-first): g probes descend one
// level per iteration; after each probe's position is known, its node on
// the *next* level is prefetched, so the next iteration's g loads hit
// lines that are already in flight.
//
// Identical results to UpperBoundBf per probe (g <= kMaxBatchGroup).
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundBfGroup(const T* lin, int64_t stored_slots, int64_t n,
                       const T* vals, int g, int64_t* out,
                       SearchCounters* counters = nullptr) {
  if constexpr (B == simd::Backend::kDispatch) {
    return DispatchRoute<T, Eval, kBits>(
        [&](auto b) {
          return UpperBoundBfGroup<T, Eval, decltype(b)::value, kBits>(
              lin, stored_slots, n, vals, g, out, counters);
        },
        &NativeKernels<T, Eval, kBits>::upper_bound_bf_group,
        [&](auto fn) {
          return fn(lin, stored_slots, n, vals, g, out, counters);
        });
  } else {
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;  // k - 1
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;  // k
    if (n == 0) {
      for (int i = 0; i < g; ++i) out[i] = 0;
      return;
    }

    typename Ops::Reg probe[kMaxBatchGroup];
    int64_t position[kMaxBatchGroup];
    bool pruned[kMaxBatchGroup];
    const T* ptr[kMaxBatchGroup];
    int step[kMaxBatchGroup];
    for (int i = 0; i < g; ++i) {
      probe[i] = Ops::Set1(vals[i]);
      position[i] = 0;
      pruned[i] = false;
    }

    int64_t level_base = 0;   // first slot of the current level
    int64_t level_nodes = 1;  // node count on the current level
    while (level_base < stored_slots) {
      for (int i = 0; i < g; ++i) {
        const int64_t key_off = level_base + position[i] * kLanes;
        position[i] *= kArity;
        if (pruned[i] || key_off >= stored_slots) {
          // Descent into an unmaterialized all-padding subtree: the answer
          // is already n (see UpperBoundBf). Probe slot 0 as a harmless
          // stand-in so the batch compare stays branch-free.
          pruned[i] = true;
          ptr[i] = lin;
        } else {
          ptr[i] = lin + key_off;
        }
      }
      if (counters != nullptr) {
        // Logical cost mirrors the counted UpperBoundBf: pruned probes
        // issue a physical stand-in compare but do no logical work.
        for (int i = 0; i < g; ++i) {
          if (!pruned[i]) ++counters->simd_comparisons;
        }
      }
      CompareNodeBatch<T, Eval, B, kBits>(ptr, probe, g, step);
      const int64_t next_base = level_base + level_nodes * kLanes;
      for (int i = 0; i < g; ++i) {
        position[i] += pruned[i] ? 0 : step[i];
        PrefetchRead(lin + next_base + position[i] * kLanes);
      }
      level_base = next_base;
      level_nodes *= kArity;
    }
    for (int i = 0; i < g; ++i) {
      out[i] = pruned[i] ? n : std::min(position[i], n);
    }
  }
}

// Group-pipelined Algorithm 4 (depth-first, perfect storage): the next
// key offset is pure arithmetic on the comparison result, so each
// probe's next subtree start is prefetched as soon as its step is known.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundDfGroup(const T* lin, int64_t perfect_slots, int64_t n,
                       const T* vals, int g, int64_t* out,
                       SearchCounters* counters = nullptr) {
  if constexpr (B == simd::Backend::kDispatch) {
    return DispatchRoute<T, Eval, kBits>(
        [&](auto b) {
          return UpperBoundDfGroup<T, Eval, decltype(b)::value, kBits>(
              lin, perfect_slots, n, vals, g, out, counters);
        },
        &NativeKernels<T, Eval, kBits>::upper_bound_df_group,
        [&](auto fn) {
          return fn(lin, perfect_slots, n, vals, g, out, counters);
        });
  } else {
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;
    if (n == 0) {
      for (int i = 0; i < g; ++i) out[i] = 0;
      return;
    }

    typename Ops::Reg probe[kMaxBatchGroup];
    int64_t position[kMaxBatchGroup];
    int64_t key_off[kMaxBatchGroup];
    const T* ptr[kMaxBatchGroup];
    int step[kMaxBatchGroup];
    for (int i = 0; i < g; ++i) {
      probe[i] = Ops::Set1(vals[i]);
      position[i] = 0;
      key_off[i] = 0;
    }

    int64_t sub_size = perfect_slots;  // keys in the current subtree
    while (sub_size > 0) {
      for (int i = 0; i < g; ++i) ptr[i] = lin + key_off[i];
      if (counters != nullptr) counters->simd_comparisons += g;
      CompareNodeBatch<T, Eval, B, kBits>(ptr, probe, g, step);
      sub_size = (sub_size - (kArity - 1)) / kArity;  // child subtree keys
      for (int i = 0; i < g; ++i) {
        key_off[i] += kLanes + sub_size * step[i];
        position[i] = position[i] * kArity + step[i];
        PrefetchRead(lin + key_off[i]);
      }
    }
    for (int i = 0; i < g; ++i) out[i] = std::min(position[i], n);
  }
}

// Batched upper bound over `count` probes: chunks the batch into
// pipelined groups of `group` (clamped to [1, kMaxBatchGroup]).
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundBatch(const T* lin, int64_t stored_slots, int64_t n,
                     Layout layout, const T* vals, size_t count, int64_t* out,
                     int group = kDefaultBatchGroup,
                     SearchCounters* counters = nullptr) {
  group = ClampBatchGroup(group);
  for (size_t off = 0; off < count; off += static_cast<size_t>(group)) {
    const int g = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(group), count - off));
    if (layout == Layout::kBreadthFirst) {
      UpperBoundBfGroup<T, Eval, B, kBits>(lin, stored_slots, n, vals + off,
                                           g, out + off, counters);
    } else {
      UpperBoundDfGroup<T, Eval, B, kBits>(lin, stored_slots, n, vals + off,
                                           g, out + off, counters);
    }
  }
}

// Batched lower bound via the integer identity lower_bound(v) ==
// upper_bound(v - 1), with the type-minimum case pinned to 0 (matching
// LowerBoundFromUpperBound). Type-minimum probes are compacted out of
// the pipelined group: they resolve to 0 without descending, so — like
// the single-query identity — they contribute no comparisons.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void LowerBoundBatch(const T* lin, int64_t stored_slots, int64_t n,
                     Layout layout, const T* vals, size_t count, int64_t* out,
                     int group = kDefaultBatchGroup,
                     SearchCounters* counters = nullptr) {
  group = ClampBatchGroup(group);
  T shifted[kMaxBatchGroup];
  int64_t sub_out[kMaxBatchGroup];
  int src[kMaxBatchGroup];
  for (size_t off = 0; off < count; off += static_cast<size_t>(group)) {
    const int g = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(group), count - off));
    int gc = 0;
    for (int i = 0; i < g; ++i) {
      const T v = vals[off + static_cast<size_t>(i)];
      if (v == std::numeric_limits<T>::min()) {
        out[off + static_cast<size_t>(i)] = 0;
        continue;
      }
      shifted[gc] = static_cast<T>(v - 1);
      src[gc] = i;
      ++gc;
    }
    if (gc == 0) continue;
    if (layout == Layout::kBreadthFirst) {
      UpperBoundBfGroup<T, Eval, B, kBits>(lin, stored_slots, n, shifted, gc,
                                           sub_out, counters);
    } else {
      UpperBoundDfGroup<T, Eval, B, kBits>(lin, stored_slots, n, shifted, gc,
                                           sub_out, counters);
    }
    for (int i = 0; i < gc; ++i) {
      out[off + static_cast<size_t>(src[i])] = sub_out[i];
    }
  }
}

// --- grouped (level-wise) batch descent ------------------------------------
//
// The pipelined groups above hide latency but still load every node once
// per query: a 4096-probe batch touches the root 4096 times. The grouped
// descent instead sorts the batch (core/batch_sort.h) and walks the tree
// level by level with a frontier of (node, contiguous query run) pairs:
// each frontier node is loaded once per batch, and its run is partitioned
// across the node's children by binary-splitting the sorted run on the
// node's separator keys (upper-bound semantics: the queries routed to
// child c are exactly those in [sep[c-1], sep[c])). Runs that shrink to a
// few queries switch to the plain SIMD compare step — one compare against
// the already-hot node — which computes the same child by construction.
//
// Results are bit-identical to UpperBoundBatch: the separators within a
// node are ascending (padding sorts last), so `first query >= sep[c]`
// splits the run exactly where the per-query SIMD step changes from c to
// c+1. Logical counters stay parity with the pipelined/counted singles
// (one simd_comparison per query per non-pruned level); the physical
// amortization shows up in SearchCounters::nodes_loaded, which counts
// each frontier node once.

namespace grouped_internal {

// One frontier entry: the queries svals[begin, end) all route to the
// same node of the current level.
struct KaryRun {
  int64_t pos = 0;      // node position within the level (BF) / rank
  int64_t key_off = 0;  // first key slot of the node (DF only)
  uint32_t begin = 0;
  uint32_t end = 0;
};

// Runs at or below this length partition by per-query SIMD steps instead
// of per-separator binary splits (the node is cache-hot either way; a
// short run has fewer queries than separators worth searching).
inline constexpr uint32_t kSplitMinRun = 8;

// The engines below take the per-probe SIMD comparison as a generic
// step callable `step_pos(node_keys, v) -> child index` instead of
// instantiating Ops directly. Concrete backends pass an inline
// CompareStep lambda (compiles to the old hoisted-register loop); the
// Backend::kDispatch route passes the registered native `compare_step`
// function pointer — keeping these std::vector-using engine bodies in
// baseline-compiled translation units only (see dispatch_kernels.h on
// the wrong-ISA vague-linkage hazard).

// Partitions the sorted queries svals[begin, end) routed to `node`
// across its children: emit(c, b, e) hands child c the queries [b, e), in
// ascending c. A short run takes a per-query SIMD step against the hot
// node, coalescing adjacent equal children (steps are non-decreasing over
// the sorted run). A long run binary-splits on the separators: child c
// keeps the queries below sep[c], and the first query >= sep[c] opens
// child c+1 (identical to the SIMD step by the ascending-node argument
// above).
template <typename T, int kBits, typename StepFn, typename Emit>
void PartitionRun(const T* node, const T* svals, uint32_t begin,
                  uint32_t end, StepFn& step_pos, Emit&& emit) {
  constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
  if (end - begin <= kSplitMinRun) {
    uint32_t b = begin;
    int prev_step = -1;
    for (uint32_t j = begin; j < end; ++j) {
      const int step = step_pos(node, svals[j]);
      if (step != prev_step) {
        if (prev_step >= 0) emit(prev_step, b, j);
        b = j;
        prev_step = step;
      }
    }
    emit(prev_step, b, end);
    return;
  }
  uint32_t cur = begin;
  for (int64_t c = 0; c < kLanes && cur < end; ++c) {
    const uint32_t split = static_cast<uint32_t>(
        std::lower_bound(svals + cur, svals + end, node[c]) - svals);
    if (split > cur) emit(c, cur, split);
    cur = split;
  }
  if (cur < end) emit(kLanes, cur, end);
}

// Grouped Algorithm 5 engine (breadth-first) over an ascending batch:
// ranks[j] = upper bound of svals[j], for svals sorted ascending.
template <typename T, int kBits, typename StepFn>
void SortedGroupedBfEngine(const T* lin, int64_t stored_slots, int64_t n,
                           const T* svals, size_t count, int64_t* ranks,
                           SearchCounters* counters, StepFn&& step_pos) {
  constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
  constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;
  if (count == 0) return;
  if (n == 0) {
    for (size_t j = 0; j < count; ++j) ranks[j] = 0;
    return;
  }
  std::vector<KaryRun> frontier, next;
  frontier.push_back(
      KaryRun{0, 0, 0, static_cast<uint32_t>(count)});
  int64_t level_base = 0;
  int64_t level_nodes = 1;
  while (level_base < stored_slots && !frontier.empty()) {
    next.clear();
    const int64_t next_base = level_base + level_nodes * kLanes;
    for (size_t r = 0; r < frontier.size(); ++r) {
      if (r + kGroupedRunLookahead < frontier.size()) {
        const int64_t la_off =
            level_base + frontier[r + kGroupedRunLookahead].pos * kLanes;
        if (la_off < stored_slots) PrefetchRead(lin + la_off);
      }
      const KaryRun& run = frontier[r];
      const int64_t key_off = level_base + run.pos * kLanes;
      if (key_off >= stored_slots) {
        // Descent into an unmaterialized all-padding subtree: the answer
        // is already n, and — like the counted UpperBoundBf — the pruned
        // queries stop paying comparisons at this level.
        for (uint32_t j = run.begin; j < run.end; ++j) ranks[j] = n;
        continue;
      }
      const T* node = lin + key_off;
      if (counters != nullptr) {
        counters->simd_comparisons += run.end - run.begin;
        ++counters->nodes_loaded;
      }
      const int64_t child_base = run.pos * kArity;
      PartitionRun<T, kBits>(
          node, svals, run.begin, run.end, step_pos,
          [&](int64_t step, uint32_t b, uint32_t e) {
            const int64_t child = child_base + step;
            next.push_back(KaryRun{child, 0, b, e});
            PrefetchRead(lin + next_base + child * kLanes);
          });
    }
    frontier.swap(next);
    level_base = next_base;
    level_nodes *= kArity;
  }
  for (const KaryRun& run : frontier) {
    const int64_t rank = std::min(run.pos, n);
    for (uint32_t j = run.begin; j < run.end; ++j) ranks[j] = rank;
  }
}

// Grouped Algorithm 4 engine (depth-first, perfect storage) over an
// ascending batch. No pruning: every query descends all levels, as in
// the counted UpperBoundDf.
template <typename T, int kBits, typename StepFn>
void SortedGroupedDfEngine(const T* lin, int64_t perfect_slots, int64_t n,
                           const T* svals, size_t count, int64_t* ranks,
                           SearchCounters* counters, StepFn&& step_pos) {
  constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
  constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;
  if (count == 0) return;
  if (n == 0) {
    for (size_t j = 0; j < count; ++j) ranks[j] = 0;
    return;
  }
  std::vector<KaryRun> frontier, next;
  frontier.push_back(KaryRun{0, 0, 0, static_cast<uint32_t>(count)});
  int64_t sub_size = perfect_slots;
  while (sub_size > 0) {
    next.clear();
    sub_size = (sub_size - (kArity - 1)) / kArity;  // child subtree keys
    for (size_t r = 0; r < frontier.size(); ++r) {
      if (r + kGroupedRunLookahead < frontier.size()) {
        PrefetchRead(lin + frontier[r + kGroupedRunLookahead].key_off);
      }
      const KaryRun& run = frontier[r];
      const T* node = lin + run.key_off;
      if (counters != nullptr) {
        counters->simd_comparisons += run.end - run.begin;
        ++counters->nodes_loaded;
      }
      PartitionRun<T, kBits>(
          node, svals, run.begin, run.end, step_pos,
          [&](int64_t step, uint32_t b, uint32_t e) {
            const int64_t child_off = run.key_off + kLanes + sub_size * step;
            next.push_back(KaryRun{run.pos * kArity + step, child_off, b, e});
            PrefetchRead(lin + child_off);
          });
    }
    frontier.swap(next);
  }
  for (const KaryRun& run : frontier) {
    const int64_t rank = std::min(run.pos, n);
    for (uint32_t j = run.begin; j < run.end; ++j) ranks[j] = rank;
  }
}

}  // namespace grouped_internal

// Grouped Algorithm 5 (breadth-first) over an ascending batch:
// ranks[j] = upper bound of svals[j], for svals sorted ascending.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundSortedGroupedBf(const T* lin, int64_t stored_slots, int64_t n,
                               const T* svals, size_t count, int64_t* ranks,
                               SearchCounters* counters = nullptr) {
  if constexpr (B == simd::Backend::kDispatch) {
    return DispatchRoute<T, Eval, kBits>(
        [&](auto b) {
          return UpperBoundSortedGroupedBf<T, Eval, decltype(b)::value,
                                           kBits>(lin, stored_slots, n, svals,
                                                  count, ranks, counters);
        },
        &NativeKernels<T, Eval, kBits>::compare_step,
        [&](auto step) {
          return grouped_internal::SortedGroupedBfEngine<T, kBits>(
              lin, stored_slots, n, svals, count, ranks, counters, step);
        });
  } else {
    grouped_internal::SortedGroupedBfEngine<T, kBits>(
        lin, stored_slots, n, svals, count, ranks, counters,
        [](const T* node_keys, T v) {
          return CompareStep<T, Eval, B, kBits>(node_keys, v);
        });
  }
}

// Grouped Algorithm 4 (depth-first, perfect storage) over an ascending
// batch.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundSortedGroupedDf(const T* lin, int64_t perfect_slots, int64_t n,
                               const T* svals, size_t count, int64_t* ranks,
                               SearchCounters* counters = nullptr) {
  if constexpr (B == simd::Backend::kDispatch) {
    return DispatchRoute<T, Eval, kBits>(
        [&](auto b) {
          return UpperBoundSortedGroupedDf<T, Eval, decltype(b)::value,
                                           kBits>(lin, perfect_slots, n, svals,
                                                  count, ranks, counters);
        },
        &NativeKernels<T, Eval, kBits>::compare_step,
        [&](auto step) {
          return grouped_internal::SortedGroupedDfEngine<T, kBits>(
              lin, perfect_slots, n, svals, count, ranks, counters, step);
        });
  } else {
    grouped_internal::SortedGroupedDfEngine<T, kBits>(
        lin, perfect_slots, n, svals, count, ranks, counters,
        [](const T* node_keys, T v) {
          return CompareStep<T, Eval, B, kBits>(node_keys, v);
        });
  }
}

// Grouped batched upper bound: sort once, visit each node once, scatter
// results back to caller order. Same answers and logical counters as
// UpperBoundBatch; nodes_loaded additionally counts distinct node loads.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundBatchGrouped(const T* lin, int64_t stored_slots, int64_t n,
                            Layout layout, const T* vals, size_t count,
                            int64_t* out,
                            SearchCounters* counters = nullptr) {
  if (count == 0) return;
  SortedBatch<T> sorted;
  SortBatchWithPermutation(vals, count, &sorted);
  std::vector<int64_t> ranks(count);
  if (layout == Layout::kBreadthFirst) {
    UpperBoundSortedGroupedBf<T, Eval, B, kBits>(
        lin, stored_slots, n, sorted.keys.data(), count, ranks.data(),
        counters);
  } else {
    UpperBoundSortedGroupedDf<T, Eval, B, kBits>(
        lin, stored_slots, n, sorted.keys.data(), count, ranks.data(),
        counters);
  }
  for (size_t j = 0; j < count; ++j) out[sorted.perm[j]] = ranks[j];
}

// Grouped batched lower bound via upper_bound(v - 1), type-minimum probes
// pinned to 0 at zero cost — the same identity and counter contract as
// the pipelined LowerBoundBatch.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void LowerBoundBatchGrouped(const T* lin, int64_t stored_slots, int64_t n,
                            Layout layout, const T* vals, size_t count,
                            int64_t* out,
                            SearchCounters* counters = nullptr) {
  std::vector<T> shifted;
  std::vector<uint32_t> src;
  shifted.reserve(count);
  src.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (vals[i] == std::numeric_limits<T>::min()) {
      out[i] = 0;
      continue;
    }
    shifted.push_back(static_cast<T>(vals[i] - 1));
    src.push_back(static_cast<uint32_t>(i));
  }
  if (shifted.empty()) return;
  std::vector<int64_t> sub_out(shifted.size());
  UpperBoundBatchGrouped<T, Eval, B, kBits>(lin, stored_slots, n, layout,
                                            shifted.data(), shifted.size(),
                                            sub_out.data(), counters);
  for (size_t j = 0; j < shifted.size(); ++j) out[src[j]] = sub_out[j];
}

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_BATCH_SEARCH_H_
