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
// registers and positions live across the level loop. Each probe of a
// group searches its own array (one B+-Tree node per query in the batch
// engines, btree/batch_descent.h), so the group search is also the
// lockstep in-node search of a pipelined tree descent.
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

#include "core/batch.h"
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

// Stand-in node for a probe that compares nothing on a level (finished,
// pruned, or searching an empty array): the batch compare stays
// branch-free and never reads outside a probe's own stored slots. One
// 512-bit register wide.
template <typename T>
inline constexpr T kIdleNode[64 / sizeof(T)] = {};

// Group-pipelined Algorithm 5 (breadth-first): g probes descend one
// level per iteration, probe i over its own array lin[i] of
// stored_slots[i] materialized slots and n[i] keys (a KaryArray's batch
// passes the same array for every probe; the B+-Tree batch engines pass
// one node per probe). Each probe's first line is prefetched up front
// and, once its position on a level is known, its node on the next
// level, so every iteration's g loads hit lines already in flight. A
// probe whose array has no more levels idles against kIdleNode while
// the deeper ones finish.
//
// Identical results to UpperBoundBf per probe (g <= kMaxBatchGroup).
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundBfGroup(const T* const* lin, const int64_t* stored_slots,
                       const int64_t* n, const T* vals, int g, int64_t* out,
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

    typename Ops::Reg probe[kMaxBatchGroup];
    int64_t position[kMaxBatchGroup];  // node index on the next level
    bool live[kMaxBatchGroup];         // compares on this level
    bool pruned[kMaxBatchGroup];       // stepped into all-padding slots
    const T* ptr[kMaxBatchGroup];
    int step[kMaxBatchGroup];
    int active = 0;
    for (int i = 0; i < g; ++i) {
      probe[i] = Ops::Set1(vals[i]);
      position[i] = 0;
      pruned[i] = false;
      live[i] = n[i] > 0 && stored_slots[i] > 0;
      ptr[i] = live[i] ? lin[i] : kIdleNode<T>;
      if (live[i]) PrefetchRead(lin[i]);
      active += live[i];
    }

    int64_t level_base = 0;   // first slot of the current level
    int64_t level_nodes = 1;  // node count on the current level
    while (active > 0) {
      // Logical cost mirrors the counted UpperBoundBf: idle probes issue
      // a physical stand-in compare but do no logical work.
      if (counters != nullptr) counters->simd_comparisons += active;
      CompareNodeBatch<T, Eval, B, kBits>(ptr, probe, g, step);
      level_base += level_nodes * kLanes;
      level_nodes *= kArity;
      for (int i = 0; i < g; ++i) {
        if (!live[i]) continue;
        position[i] = position[i] * kArity + step[i];
        const int64_t key_off = level_base + position[i] * kLanes;
        if (key_off < stored_slots[i]) {
          ptr[i] = lin[i] + key_off;
          PrefetchRead(ptr[i]);
          continue;
        }
        // Every level searched, or a descent into an unmaterialized
        // all-padding subtree, whose answer is already n (UpperBoundBf).
        pruned[i] = level_base < stored_slots[i];
        live[i] = false;
        ptr[i] = kIdleNode<T>;
        --active;
      }
    }
    for (int i = 0; i < g; ++i) {
      out[i] = n[i] <= 0 ? 0 : pruned[i] ? n[i] : std::min(position[i], n[i]);
    }
  }
}

// Group-pipelined Algorithm 4 (depth-first, perfect storage): the next
// key offset is pure arithmetic on the comparison result, so each
// probe's next subtree start is prefetched as soon as its step is known.
// Probe i searches its own array lin[i] of perfect_slots[i] slots and
// n[i] keys, as in UpperBoundBfGroup.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundDfGroup(const T* const* lin, const int64_t* perfect_slots,
                       const int64_t* n, const T* vals, int g, int64_t* out,
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

    typename Ops::Reg probe[kMaxBatchGroup];
    int64_t position[kMaxBatchGroup];
    int64_t key_off[kMaxBatchGroup];
    int64_t sub_size[kMaxBatchGroup];  // keys in the probe's current subtree
    const T* ptr[kMaxBatchGroup];
    int step[kMaxBatchGroup];
    int active = 0;
    for (int i = 0; i < g; ++i) {
      probe[i] = Ops::Set1(vals[i]);
      position[i] = 0;
      key_off[i] = 0;
      sub_size[i] = n[i] > 0 ? perfect_slots[i] : 0;
      ptr[i] = sub_size[i] > 0 ? lin[i] : kIdleNode<T>;
      if (sub_size[i] > 0) PrefetchRead(lin[i]);
      active += sub_size[i] > 0;
    }

    while (active > 0) {
      if (counters != nullptr) counters->simd_comparisons += active;
      CompareNodeBatch<T, Eval, B, kBits>(ptr, probe, g, step);
      for (int i = 0; i < g; ++i) {
        if (sub_size[i] <= 0) continue;
        sub_size[i] = (sub_size[i] - (kArity - 1)) / kArity;  // child keys
        key_off[i] += kLanes + sub_size[i] * step[i];
        position[i] = position[i] * kArity + step[i];
        if (sub_size[i] > 0) {
          ptr[i] = lin[i] + key_off[i];
          PrefetchRead(ptr[i]);
        } else {
          ptr[i] = kIdleNode<T>;
          --active;
        }
      }
    }
    for (int i = 0; i < g; ++i) {
      out[i] = n[i] <= 0 ? 0 : std::min(position[i], n[i]);
    }
  }
}

// Batched upper bound over `count` probes of one array: splits the batch
// into near-equal pipelined groups of at most `group` (ForEachBatchGroup),
// every probe of a group searching `lin`.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
void UpperBoundBatch(const T* lin, int64_t stored_slots, int64_t n,
                     Layout layout, const T* vals, size_t count, int64_t* out,
                     int group = kDefaultBatchGroup,
                     SearchCounters* counters = nullptr) {
  const T* lins[kMaxBatchGroup];
  int64_t stored[kMaxBatchGroup];
  int64_t ns[kMaxBatchGroup];
  for (int i = 0; i < kMaxBatchGroup; ++i) {
    lins[i] = lin;
    stored[i] = stored_slots;
    ns[i] = n;
  }
  ForEachBatchGroup(count, group, [&](size_t off, int g) {
    if (layout == Layout::kBreadthFirst) {
      UpperBoundBfGroup<T, Eval, B, kBits>(lins, stored, ns, vals + off, g,
                                           out + off, counters);
    } else {
      UpperBoundDfGroup<T, Eval, B, kBits>(lins, stored, ns, vals + off, g,
                                           out + off, counters);
    }
  });
}

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_BATCH_SEARCH_H_
