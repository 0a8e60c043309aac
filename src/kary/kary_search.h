// k-ary SIMD search over linearized key arrays
// (paper Section 3.1, Algorithms 4 and 5).
//
// Both searches return the *upper bound* of the probe in the logical
// sorted order: the number of keys <= v, i.e. the index of the first key
// strictly greater than v (== n when no key is greater). This is exactly
// the position a B+-Tree uses to select the child pointer, and it matches
// std::upper_bound on the original sorted list — the paper's "pLevel is
// equal to the search result of a binary search on the same list of keys".
//
// The k-1 keys of each logical node are adjacent in the linearized array,
// so each level costs one SIMD load + compare + movemask + bitmask
// evaluation. Padding slots hold PadValue<T>() (greater than every real
// key, or equal to it when the maximum key is itself the type maximum —
// the final clamp to n makes both cases correct; see linearize.h).

#ifndef SIMDTREE_KARY_KARY_SEARCH_H_
#define SIMDTREE_KARY_KARY_SEARCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "kary/dispatch_kernels.h"
#include "kary/layout.h"
#include "simd/bitmask_eval.h"
#include "simd/dispatch.h"
#include "simd/simd128.h"
#include "simd/simd256.h"
#include "simd/simd512.h"
#include "util/counters.h"

// Every search entry point below and in batch_search.h accepts
// Backend::kDispatch (the default backend) and hands it to one route,
// DispatchRoute. When the dispatch decision wants native code at the
// structure's width (simd::DispatchWantsNative), width 128 runs the
// inline SSE instantiation, width 256 the inline AVX2 one when this TU
// is compiled with AVX2 and otherwise the kernels_avx2.cc registry slot,
// and width 512 the kernels_avx512.cc registry slot. Everything else,
// an empty slot included, runs the scalar image of the same width. The
// routing is if-constexpr, so Ops<T, kDispatch, W> — deliberately an
// incomplete type — is never instantiated.
//
// Counting is a template argument (util/counters.h): a SearchCounters*
// `counters` adds one simd_comparisons per k-ary level the search
// compares; the default NoCounters instantiates the loop without it.

namespace simdtree::kary {

template <simd::Backend B>
using BackendTag = std::integral_constant<simd::Backend, B>;

// The one route of a Backend::kDispatch search at width kBits (see
// above). `run(BackendTag<B>{})` runs the search's concrete-backend
// instantiation. `slot` names the search's NativeKernels entry, or is
// nullptr for a search without one; `run_slot(fn)` calls a filled entry.
template <typename T, typename Eval, int kBits, typename Run,
          typename Slot = std::nullptr_t, typename RunSlot = std::nullptr_t>
decltype(auto) DispatchRoute(Run run, Slot slot = nullptr,
                             RunSlot run_slot = nullptr) {
  if (simd::DispatchWantsNative(kBits)) {
    if constexpr (kBits == 128) {
      if constexpr (simd::kHaveSse) {
        return run(BackendTag<simd::Backend::kSse>{});
      }
    } else if constexpr (kBits == 256 && simd::kHaveAvx2) {
      return run(BackendTag<simd::Backend::kSse>{});
    } else if constexpr (!std::is_null_pointer_v<Slot>) {
      const auto fn = NativeKernels<T, Eval, kBits>::instance.*slot;
      if (fn != nullptr) return run_slot(fn);
    }
  }
  return run(BackendTag<simd::Backend::kScalar>{});
}

// One SIMD comparison step: loads k-1 keys at `keys`, compares them against
// the broadcast probe register, and evaluates the bitmask to the index of
// the first key greater than the probe (paper Section 2.1, steps 1-5).
template <typename T, typename Eval, simd::Backend B, int kBits = 128>
inline int CompareNode(const T* keys,
                       const typename simd::Ops<T, B, kBits>::Reg& probe) {
  using Ops = simd::Ops<T, B, kBits>;
  const auto node = Ops::LoadUnaligned(keys);
  const auto mask = Ops::MoveMask(Ops::CmpGt(node, probe));
  return Eval::template Position<T, kBits>(mask);
}

// Algorithm 5: search on a breadth-first linearized array.
//
// `stored_slots` is the number of materialized key slots — either the
// perfect k^r - 1 or the truncated node-granular prefix (StoredSlots).
// A descent into a node beyond the stored prefix can only happen when the
// answer is already >= n (the pruned subtree contains only padding), so it
// returns n directly, and that level costs no comparison.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128,
          typename Counters = NoCounters>
int64_t UpperBoundBf(const T* lin, int64_t stored_slots, int64_t n, T v,
                     Counters counters = {}) {
  if constexpr (B == simd::Backend::kDispatch) {
    return DispatchRoute<T, Eval, kBits>(
        [&](auto b) {
          return UpperBoundBf<T, Eval, decltype(b)::value, kBits>(
              lin, stored_slots, n, v, counters);
        },
        &NativeKernels<T, Eval, kBits>::upper_bound_bf,
        [&](auto fn) { return fn(lin, stored_slots, n, v, counters); });
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;  // k - 1
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;  // k

    const auto probe = Ops::Set1(v);
    int64_t position = 0;        // pLevel: node index, then key position
    int64_t level_base = 0;      // nextBasePtr: first slot of current level
    int64_t level_nodes = 1;     // lvlCnt: node count on current level
    while (level_base < stored_slots) {
      const int64_t key_off = level_base + position * kLanes;
      position *= kArity;
      if (key_off >= stored_slots) return n;  // pruned all-padding subtree
      if constexpr (kCounting<Counters>) ++counters->simd_comparisons;
      position += CompareNode<T, Eval, B, kBits>(lin + key_off, probe);
      level_base += level_nodes * kLanes;
      level_nodes *= kArity;
    }
    return std::min(position, n);
  }
}

// Algorithm 4: search on a depth-first linearized array. Requires the
// perfect materialization (`perfect_slots` = k^r - 1): the offset
// arithmetic jumps over `position` complete child subtrees per level.
// There is no pruned-subtree exit, so a search counts one comparison per
// level of the perfect height.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128,
          typename Counters = NoCounters>
int64_t UpperBoundDf(const T* lin, int64_t perfect_slots, int64_t n, T v,
                     Counters counters = {}) {
  if constexpr (B == simd::Backend::kDispatch) {
    return DispatchRoute<T, Eval, kBits>(
        [&](auto b) {
          return UpperBoundDf<T, Eval, decltype(b)::value, kBits>(
              lin, perfect_slots, n, v, counters);
        },
        &NativeKernels<T, Eval, kBits>::upper_bound_df,
        [&](auto fn) { return fn(lin, perfect_slots, n, v, counters); });
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;  // k - 1
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;  // k

    const auto probe = Ops::Set1(v);
    int64_t position = 0;
    int64_t sub_size = perfect_slots;  // keys in the current subtree
    int64_t key_off = 0;
    while (sub_size > 0) {
      position *= kArity;
      sub_size = (sub_size - (kArity - 1)) / kArity;  // child subtree keys
      if constexpr (kCounting<Counters>) ++counters->simd_comparisons;
      const int pos = CompareNode<T, Eval, B, kBits>(lin + key_off, probe);
      key_off += kLanes;             // skip this node's keys
      key_off += sub_size * pos;     // skip `pos` child subtrees
      position += pos;
    }
    return std::min(position, n);
  }
}

// Equality-termination extension (discussed in paper Section 3.1): each
// level additionally compares for equality and stops the descent on a hit.
// Exact for distinct keys; with duplicates it may return a smaller count
// of equal keys than UpperBoundBf (still a valid containment witness).
// The paper expects — and Figure-9-style measurements confirm — no benefit
// on flat trees; provided for the ablation bench.
template <typename T, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
int64_t UpperBoundBfWithEquality(const T* lin, const KaryShape& shape,
                                 int64_t stored_slots, int64_t n, T v) {
  if constexpr (B == simd::Backend::kDispatch) {
    // Bench-only extension without a registry slot: a 512-bit dispatch
    // runs the scalar image (ablation_equality is 128-bit).
    return DispatchRoute<T, Eval, kBits>([&](auto b) {
      return UpperBoundBfWithEquality<T, Eval, decltype(b)::value, kBits>(
          lin, shape, stored_slots, n, v);
    });
  } else {
    if (n == 0) return 0;
    using Ops = simd::Ops<T, B, kBits>;
    constexpr int64_t kLanes = simd::LaneTraits<T, kBits>::kLanes;
    constexpr int64_t kArity = simd::LaneTraits<T, kBits>::kArity;

    const auto probe = Ops::Set1(v);
    int64_t position = 0;
    int64_t level_base = 0;
    int64_t level_nodes = 1;
    // Sorted positions spanned by one child subtree on the current level.
    int64_t child_span = (shape.slots + 1) / kArity;  // k^(r-1)
    while (level_base < stored_slots) {
      const int64_t key_off = level_base + position * kLanes;
      const int64_t node_lo = position * child_span * kArity;
      position *= kArity;
      if (key_off >= stored_slots) return n;

      const auto node = Ops::LoadUnaligned(lin + key_off);
      const auto eq_mask = Ops::MoveMask(Ops::CmpEq(node, probe));
      if (eq_mask != 0) {
        // Separator i sits at sorted position node_lo + (i+1)*child_span - 1;
        // upper bound of a matched distinct key is that position + 1.
        const int lane =
            simd::CountTrailingZeros64(static_cast<uint64_t>(eq_mask)) /
            simd::LaneTraits<T, kBits>::kMaskBitsPerLane;
        return std::min(node_lo + (lane + 1) * child_span, n);
      }
      const auto gt_mask = Ops::MoveMask(Ops::CmpGt(node, probe));
      position += Eval::template Position<T, kBits>(gt_mask);
      level_base += level_nodes * kLanes;
      level_nodes *= kArity;
      child_span /= kArity;
    }
    return std::min(position, n);
  }
}

// Lower bound on top of the upper-bound primitive: the index of the first
// key >= v. For integers, lower_bound(v) == upper_bound(v - 1) when v has
// a predecessor, and 0 when v is the type minimum.
template <typename T, typename UpperBoundFn>
int64_t LowerBoundFromUpperBound(T v, UpperBoundFn&& upper_bound) {
  if (v == std::numeric_limits<T>::min()) return 0;
  return upper_bound(static_cast<T>(v - 1));
}

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_KARY_SEARCH_H_
