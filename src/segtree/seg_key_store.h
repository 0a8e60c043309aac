// Seg-Tree in-node key storage (paper Section 3): keys are kept in
// linearized k-ary search tree order and searched with SIMD; the logical
// (sorted) order used by the tree frame is recovered through the layout
// permutation. Child pointers and values are NOT rearranged — the paper's
// property that "only the keys in the k-ary search tree must be
// linearized; pointers are left unchanged".
//
// Mutations:
//   * appending the largest key ("continuous filling with ascending key
//     values", Section 3.2) writes exactly one slot — no reordering;
//   * removing the largest key likewise clears one slot;
//   * any other insert/remove delinearizes into a per-context scratch
//     buffer, edits, and relinearizes (the paper's reordering overhead).
//
// Padding slots hold PadValue<Key>() (see linearize.h), so appends never
// need to refresh existing padding.
//
// Storage: the store is a view over a fixed array of
// Context::key_storage_slots() keys (the layout's full slot count), a
// slice of the node's arena block. Slots beyond stored_slots() are
// unmaterialized (never read).

#ifndef SIMDTREE_SEGTREE_SEG_KEY_STORE_H_
#define SIMDTREE_SEGTREE_SEG_KEY_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/batch.h"
#include "kary/batch_search.h"
#include "kary/kary_search.h"
#include "kary/layout.h"
#include "kary/linearize.h"
#include "mem/arena.h"
#include "simd/bitmask_eval.h"
#include "simd/simd128.h"

namespace simdtree::segtree {

template <typename Key, typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
class SegKeyStore {
 public:
  static constexpr int kArity = simd::LaneTraits<Key, kBits>::kArity;

  // Shared per-tree state for one node kind: the layout permutation for
  // the node shape, the storage policy, and a scratch buffer for
  // relinearization. The scratch buffer makes mutations non-reentrant:
  // reads are safe concurrently, writes are single-threaded (matching the
  // paper's single-threaded scope).
  struct Context {
    Context(int64_t capacity_in, kary::Layout layout_in,
            kary::Storage storage_in)
        : capacity(capacity_in),
          layout_kind(layout_in),
          // Depth-first offset arithmetic requires the perfect tree
          // (see kary/layout.h).
          storage(layout_in == kary::Layout::kDepthFirst
                      ? kary::Storage::kPerfect
                      : storage_in),
          layout(kary::KaryShape::For(kArity, capacity_in), layout_in) {
      scratch.reserve(static_cast<size_t>(layout.slots()));
    }

    int64_t capacity;
    kary::Layout layout_kind;
    kary::Storage storage;
    kary::KaryLayout layout;
    // Every relinearizing write stores the scratch vector's pointers; its
    // own line keeps those stores off the lines of the fields above,
    // which every search loads (layout's permutation in At()).
    alignas(mem::kCacheLine) mutable std::vector<Key> scratch;

    // Physical Key slots a node block reserves for this store: the full
    // layout, so a node never reallocates as it fills.
    int64_t key_storage_slots() const { return layout.slots(); }
  };

  // A view over ctx.key_storage_slots() keys of external storage (a
  // slice of the node's arena block, see generic_btree.h).
  SegKeyStore(const Context& ctx, Key* storage) : ctx_(&ctx), lin_(storage) {}

  int64_t count() const { return count_; }
  int64_t capacity() const { return ctx_->capacity; }

  Key At(int64_t pos) const {
    assert(pos >= 0 && pos < count_);
    return lin_[static_cast<size_t>(ctx_->layout.SortedToSlot(pos))];
  }

  // Index of the first key > v, via SIMD k-ary search (Algorithms 4/5).
  // A SearchCounters* `counters` counts the SIMD comparison steps.
  template <typename Counters = NoCounters>
  int64_t UpperBound(Key v, Counters counters = {}) const {
    if (ctx_->layout_kind == kary::Layout::kBreadthFirst) {
      return kary::UpperBoundBf<Key, Eval, B, kBits>(lin_, stored_, count_, v,
                                                     counters);
    }
    return kary::UpperBoundDf<Key, Eval, B, kBits>(lin_, stored_, count_, v,
                                                   counters);
  }

  // Lockstep upper bounds over g stores (the batch engines' nodes, one
  // per query): out[i] = stores[i]->UpperBound(vals[i]), through the
  // group k-ary search (kary/batch_search.h), which prefetches only the
  // line each probe's next k-ary step reads. Counts and stored slots may
  // be read off nodes a writer is rewriting, so they are clamped to the
  // node's capacity and key storage, as in PrefetchKeys. Every store
  // has the layout of stores[0]: the engines' trees are configured alike.
  template <typename Counters = NoCounters>
  static void UpperBoundGroup(const SegKeyStore* const* stores,
                              const Key* vals, int g, int64_t* out,
                              Counters counters = {}) {
    const Key* lin[kMaxBatchGroup];
    int64_t stored[kMaxBatchGroup];
    int64_t n[kMaxBatchGroup];
    const kary::Layout layout = stores[0]->ctx_->layout_kind;
    for (int i = 0; i < g; ++i) {
      const SegKeyStore& s = *stores[i];
      assert(s.ctx_->layout_kind == layout);
      lin[i] = s.lin_;
      stored[i] = std::clamp<int64_t>(s.stored_, 0,
                                      s.ctx_->key_storage_slots());
      n[i] = std::clamp<int64_t>(s.count_, 0, s.ctx_->capacity);
    }
    if (layout == kary::Layout::kBreadthFirst) {
      kary::UpperBoundBfGroup<Key, Eval, B, kBits>(lin, stored, n, vals, g,
                                                   out, counters);
    } else {
      kary::UpperBoundDfGroup<Key, Eval, B, kBits>(lin, stored, n, vals, g,
                                                   out, counters);
    }
  }

  // Trace layout id (obs/trace.h kTraceLayoutBreadthFirst/DepthFirst).
  uint8_t TraceLayoutId() const {
    return ctx_->layout_kind == kary::Layout::kBreadthFirst ? 1 : 2;
  }

  // Index of the first key >= v.
  int64_t LowerBound(Key v) const {
    if (v == std::numeric_limits<Key>::min()) return 0;
    return UpperBound(static_cast<Key>(v - 1));
  }

  // Prefetches every materialized key line ahead of a search (the batch
  // engines' small groups and grouped frontiers, see
  // btree/batch_descent.h): each k-ary step reads a line chosen by the
  // previous step, so fetching them all lets the steps run without a
  // miss between them (at most 31 lines for a 242-key uint64_t node).
  // stored_ may be read off a node a writer is rewriting, so it is
  // clamped to the node's key storage.
  void PrefetchKeys() const {
    const int64_t stored =
        std::clamp<int64_t>(stored_, 0, ctx_->key_storage_slots());
    mem::PrefetchLines(lin_, static_cast<size_t>(stored) * sizeof(Key));
  }

  void InsertAt(int64_t pos, Key k) {
    assert(pos >= 0 && pos <= count_);
    assert(count_ < capacity());
    if (pos == count_) {  // append fast path: no reordering (Section 3.2)
      const int64_t new_stored =
          ctx_->layout.StoredSlots(count_ + 1, ctx_->storage);
      GrowTo(new_stored);
      lin_[static_cast<size_t>(ctx_->layout.SortedToSlot(count_))] = k;
      ++count_;
      return;
    }
    std::vector<Key>& scratch = ctx_->scratch;
    scratch.resize(static_cast<size_t>(count_));
    ctx_->layout.Delinearize(lin_, count_, scratch.data());
    scratch.insert(scratch.begin() + static_cast<ptrdiff_t>(pos), k);
    Relinearize(count_ + 1);
  }

  void RemoveAt(int64_t pos) {
    assert(pos >= 0 && pos < count_);
    if (pos == count_ - 1) {  // remove-max fast path
      lin_[static_cast<size_t>(ctx_->layout.SortedToSlot(pos))] =
          kary::PadValue<Key>();
      --count_;
      ShrinkTo(ctx_->layout.StoredSlots(count_, ctx_->storage));
      return;
    }
    std::vector<Key>& scratch = ctx_->scratch;
    scratch.resize(static_cast<size_t>(count_));
    ctx_->layout.Delinearize(lin_, count_, scratch.data());
    scratch.erase(scratch.begin() + static_cast<ptrdiff_t>(pos));
    Relinearize(count_ - 1);
  }

  void AssignSorted(const Key* keys, int64_t n) {
    assert(n <= capacity());
    std::vector<Key>& scratch = ctx_->scratch;
    scratch.assign(keys, keys + n);
    Relinearize(n);
  }

  void Clear() {
    count_ = 0;
    stored_ = 0;
  }

  void MoveSuffixTo(SegKeyStore& dst, int64_t from) {
    assert(dst.count() == 0);
    assert(dst.ctx_ == ctx_ || dst.ctx_->capacity >= count_ - from);
    // Delinearize once; the suffix goes to dst, the prefix stays here.
    std::vector<Key> sorted(static_cast<size_t>(count_));
    ctx_->layout.Delinearize(lin_, count_, sorted.data());
    dst.AssignSorted(sorted.data() + from, count_ - from);
    std::vector<Key>& scratch = ctx_->scratch;
    scratch.assign(sorted.begin(),
                   sorted.begin() + static_cast<ptrdiff_t>(from));
    Relinearize(from);
  }

  void AppendFrom(SegKeyStore& src) {
    assert(count_ + src.count() <= capacity());
    std::vector<Key> merged(static_cast<size_t>(count_ + src.count()));
    ctx_->layout.Delinearize(lin_, count_, merged.data());
    src.ctx_->layout.Delinearize(src.lin_, src.count_,
                                 merged.data() + count_);
    std::vector<Key>& scratch = ctx_->scratch;
    scratch.assign(merged.begin(), merged.end());
    Relinearize(static_cast<int64_t>(merged.size()));
    src.Clear();
  }

  size_t MemoryBytes() const {
    return static_cast<size_t>(stored_) * sizeof(Key);
  }

  // Materialized slot count (the paper's N_S for this node).
  int64_t stored_slots() const { return stored_; }

 private:
  // Rebuilds lin_ from ctx_->scratch (sorted, n keys).
  void Relinearize(int64_t n) {
    const int64_t stored = ctx_->layout.StoredSlots(n, ctx_->storage);
    ctx_->layout.Linearize(ctx_->scratch.data(), n, lin_, stored,
                           kary::PadValue<Key>());
    count_ = n;
    stored_ = stored;
  }

  // Materializes padding in the newly stored slots; existing slots keep
  // their keys/padding (the append fast path's invariant).
  void GrowTo(int64_t stored) {
    assert(stored <= ctx_->key_storage_slots());
    for (int64_t s = stored_; s < stored; ++s) {
      lin_[static_cast<size_t>(s)] = kary::PadValue<Key>();
    }
    if (stored > stored_) stored_ = stored;
  }

  void ShrinkTo(int64_t stored) {
    if (stored < stored_) stored_ = stored;
  }

  const Context* ctx_;
  Key* lin_;                // linearized keys + padding
  int64_t stored_ = 0;      // materialized slots
  int64_t count_ = 0;       // real keys
};

}  // namespace simdtree::segtree

#endif  // SIMDTREE_SEGTREE_SEG_KEY_STORE_H_
