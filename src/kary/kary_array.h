// KaryArray: an immutable sorted key set stored as a linearized k-ary
// search tree and searched with SIMD — the standalone form of the paper's
// Section 2.2 building block (a single "node" of arbitrary size).
//
// Useful on its own for static in-memory dictionaries, and used by the
// micro benches; the Seg-Tree embeds the same machinery per tree node.

#ifndef SIMDTREE_KARY_KARY_ARRAY_H_
#define SIMDTREE_KARY_KARY_ARRAY_H_

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "kary/batch_search.h"
#include "kary/kary_search.h"
#include "kary/linearize.h"
#include "simd/simd128.h"

namespace simdtree::kary {

template <typename T, int kBits = 128>
class KaryArray {
 public:
  static constexpr int kArity = simd::LaneTraits<T, kBits>::kArity;

  // `sorted` must be ascending (duplicates allowed). The depth-first
  // layout forces perfect storage (see layout.h).
  KaryArray(std::vector<T> sorted, Layout layout,
            Storage storage = Storage::kTruncated)
      : n_(static_cast<int64_t>(sorted.size())),
        layout_kind_(layout),
        storage_(layout == Layout::kDepthFirst ? Storage::kPerfect : storage),
        layout_(KaryShape::For(kArity, n_ == 0 ? 1 : n_), layout) {
    lin_.resize(static_cast<size_t>(layout_.StoredSlots(n_, storage_)));
    layout_.Linearize(sorted.data(), n_, lin_.data(),
                      static_cast<int64_t>(lin_.size()), PadValue<T>());
  }

  int64_t size() const { return n_; }
  int64_t stored_slots() const { return static_cast<int64_t>(lin_.size()); }
  const KaryLayout& layout() const { return layout_; }

  // Index of the first key > v in the logical sorted order.
  template <typename Eval = simd::PopcountEval,
            simd::Backend B = simd::kDefaultBackend>
  int64_t UpperBound(T v) const {
    if (layout_kind_ == Layout::kBreadthFirst) {
      return UpperBoundBf<T, Eval, B, kBits>(lin_.data(), stored_slots(), n_,
                                             v);
    }
    return UpperBoundDf<T, Eval, B, kBits>(lin_.data(), stored_slots(), n_,
                                           v);
  }

  // Index of the first key >= v in the logical sorted order.
  template <typename Eval = simd::PopcountEval,
            simd::Backend B = simd::kDefaultBackend>
  int64_t LowerBound(T v) const {
    return LowerBoundFromUpperBound<T>(
        v, [this](T u) { return UpperBound<Eval, B>(u); });
  }

  template <typename Eval = simd::PopcountEval,
            simd::Backend B = simd::kDefaultBackend>
  bool Contains(T v) const {
    const int64_t ub = UpperBound<Eval, B>(v);
    return ub > 0 && KeyAtSortedPosition(ub - 1) == v;
  }

  // Batched upper bound: out[i] = UpperBound(vals[i]) for all i, computed
  // with group software pipelining (batch_search.h) — groups of `group`
  // probes descend in lockstep with each probe's next node prefetched one
  // level ahead, overlapping the per-level cache misses.
  // With a non-null `counters`, accumulates the batch's logical search
  // cost (one SIMD comparison per level per probe, pruned subtrees
  // excluded) — identical to summing the single-query counted variants.
  template <typename Eval = simd::PopcountEval,
            simd::Backend B = simd::kDefaultBackend>
  void UpperBoundBatch(const T* vals, size_t count, int64_t* out,
                       int group = kDefaultBatchGroup,
                       SearchCounters* counters = nullptr) const {
    kary::UpperBoundBatch<T, Eval, B, kBits>(lin_.data(), stored_slots(), n_,
                                             layout_kind_, vals, count, out,
                                             group, counters);
  }

  // Key at logical sorted position p (O(1) via the permutation).
  T KeyAtSortedPosition(int64_t p) const {
    assert(p >= 0 && p < n_);
    return lin_[static_cast<size_t>(layout_.SortedToSlot(p))];
  }

  size_t MemoryBytes() const { return lin_.size() * sizeof(T); }

 private:
  int64_t n_;
  Layout layout_kind_;
  Storage storage_;
  KaryLayout layout_;
  std::vector<T> lin_;
};

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_KARY_ARRAY_H_
