// Baseline in-node key storage: a plain sorted array searched with scalar
// binary search (the paper's baseline) or sequential search (ablation).
//
// This is one of the two interchangeable key-store policies of
// GenericBPlusTree (see generic_btree.h for the policy contract); the
// other is the linearized SIMD store in src/segtree/seg_key_store.h.
//
// Storage: the store is a view over a fixed array of
// Context::key_storage_slots() keys, a slice of the node's arena block
// (keys share the node's cache lines).

#ifndef SIMDTREE_BTREE_PLAIN_KEY_STORE_H_
#define SIMDTREE_BTREE_PLAIN_KEY_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/batch.h"
#include "kary/scalar_search.h"
#include "mem/arena.h"

namespace simdtree::btree {

// In-node scalar search algorithms (paper Section 1: "search strategies
// range from sequential over binary to exploration search").
// Each tag also searches g arrays at once (UpperBoundGroup: probe i
// searches keys[i][0..n[i]) for vals[i]), with the same answers and
// comparison counts as g single searches.
struct BinarySearchTag {
  static constexpr const char* kName = "binary";
  template <typename Key, typename Counters>
  static int64_t UpperBound(const Key* keys, int64_t n, Key v,
                            Counters counters) {
    return kary::BinaryUpperBound(keys, n, v, counters);
  }
  // The g binary searches run in lockstep, one halving per round; each
  // probe's next midpoint line is prefetched as soon as its interval is
  // known, so a round's g loads overlap.
  template <typename Key, typename Counters>
  static void UpperBoundGroup(const Key* const* keys, const int64_t* n,
                              const Key* vals, int g, int64_t* out,
                              Counters counters) {
    int64_t lo[kMaxBatchGroup];
    int64_t hi[kMaxBatchGroup];
    for (int i = 0; i < g; ++i) {
      lo[i] = 0;
      hi[i] = n[i];
      if (hi[i] > 0) PrefetchRead(keys[i] + hi[i] / 2);
    }
    for (bool open = true; open;) {
      open = false;
      for (int i = 0; i < g; ++i) {
        if (lo[i] >= hi[i]) continue;
        const int64_t mid = lo[i] + (hi[i] - lo[i]) / 2;
        if constexpr (kCounting<Counters>) ++counters->scalar_comparisons;
        if (keys[i][mid] > vals[i]) {
          hi[i] = mid;
        } else {
          lo[i] = mid + 1;
        }
        if (lo[i] < hi[i]) {
          PrefetchRead(keys[i] + lo[i] + (hi[i] - lo[i]) / 2);
          open = true;
        }
      }
    }
    for (int i = 0; i < g; ++i) out[i] = lo[i];
  }
};

struct SequentialSearchTag {
  static constexpr const char* kName = "sequential";
  template <typename Key, typename Counters>
  static int64_t UpperBound(const Key* keys, int64_t n, Key v,
                            Counters counters) {
    return kary::SequentialUpperBound(keys, n, v, counters);
  }
  // A scan reads every line up to its answer: fetch all g arrays, then
  // scan each.
  template <typename Key, typename Counters>
  static void UpperBoundGroup(const Key* const* keys, const int64_t* n,
                              const Key* vals, int g, int64_t* out,
                              Counters counters) {
    for (int i = 0; i < g; ++i) {
      mem::PrefetchLines(keys[i], static_cast<size_t>(n[i]) * sizeof(Key));
    }
    for (int i = 0; i < g; ++i) {
      out[i] = kary::SequentialUpperBound(keys[i], n[i], vals[i], counters);
    }
  }
};

template <typename Key, typename SearchTag = BinarySearchTag>
class PlainKeyStore {
  static_assert(std::is_trivially_copyable_v<Key>,
                "keys move with memcpy/memmove");

 public:
  // Shared per-tree state for one node kind. The plain store only needs
  // the node capacity.
  struct Context {
    explicit Context(int64_t capacity_in) : capacity(capacity_in) {}
    int64_t capacity;
    // Physical Key slots a node block reserves for this store.
    int64_t key_storage_slots() const { return capacity; }
  };

  // A view over ctx.key_storage_slots() keys of external storage (a
  // slice of the node's arena block, see generic_btree.h).
  PlainKeyStore(const Context& ctx, Key* storage)
      : ctx_(&ctx), keys_(storage) {}

  int64_t count() const { return count_; }
  int64_t capacity() const { return ctx_->capacity; }

  Key At(int64_t pos) const {
    assert(pos >= 0 && pos < count());
    return keys_[static_cast<size_t>(pos)];
  }

  // Index of the first key > v. A SearchCounters* `counters` counts the
  // scalar comparisons (util/counters.h).
  template <typename Counters = NoCounters>
  int64_t UpperBound(Key v, Counters counters = {}) const {
    return SearchTag::UpperBound(keys_, count_, v, counters);
  }

  // Lockstep upper bounds over g stores (the batch engines' nodes, one
  // per query): out[i] = stores[i]->UpperBound(vals[i]), through the
  // search tag's group search. Counts may be read off nodes a writer is
  // rewriting, so they are clamped to the node's key storage, as in
  // PrefetchKeys.
  template <typename Counters = NoCounters>
  static void UpperBoundGroup(const PlainKeyStore* const* stores,
                              const Key* vals, int g, int64_t* out,
                              Counters counters = {}) {
    const Key* keys[kMaxBatchGroup];
    int64_t n[kMaxBatchGroup];
    for (int i = 0; i < g; ++i) {
      keys[i] = stores[i]->keys_;
      n[i] = std::clamp<int64_t>(stores[i]->count_, 0,
                                 stores[i]->ctx_->key_storage_slots());
    }
    SearchTag::UpperBoundGroup(keys, n, vals, g, out, counters);
  }

  // Trace layout id (obs/trace.h kTraceLayoutPlain).
  uint8_t TraceLayoutId() const { return 0; }

  // Prefetches every key line ahead of a search (the batch engines'
  // small groups and grouped frontiers, see btree/batch_descent.h): a
  // binary search's probes, and a sequential scan, can read any of them.
  // count_ may be read off a node a writer is rewriting, so it is clamped
  // to the node's key storage.
  void PrefetchKeys() const {
    const int64_t n =
        std::clamp<int64_t>(count_, 0, ctx_->key_storage_slots());
    mem::PrefetchLines(keys_, static_cast<size_t>(n) * sizeof(Key));
  }

  // Index of the first key >= v.
  int64_t LowerBound(Key v) const {
    if (v == std::numeric_limits<Key>::min()) return 0;
    return UpperBound(static_cast<Key>(v - 1));
  }

  void InsertAt(int64_t pos, Key k) {
    assert(pos >= 0 && pos <= count());
    assert(count() < capacity());
    std::memmove(keys_ + pos + 1, keys_ + pos,
                 static_cast<size_t>(count_ - pos) * sizeof(Key));
    keys_[pos] = k;
    ++count_;
  }

  void RemoveAt(int64_t pos) {
    assert(pos >= 0 && pos < count());
    std::memmove(keys_ + pos, keys_ + pos + 1,
                 static_cast<size_t>(count_ - pos - 1) * sizeof(Key));
    --count_;
  }

  void AssignSorted(const Key* keys, int64_t n) {
    assert(n <= capacity());
    std::memcpy(keys_, keys, static_cast<size_t>(n) * sizeof(Key));
    count_ = n;
  }

  void Clear() { count_ = 0; }

  // Moves keys [from, count) into the empty store `dst` (node split).
  void MoveSuffixTo(PlainKeyStore& dst, int64_t from) {
    assert(dst.count() == 0);
    std::memcpy(dst.keys_, keys_ + from,
                static_cast<size_t>(count_ - from) * sizeof(Key));
    dst.count_ = count_ - from;
    count_ = from;
  }

  // Appends all keys of `src` (node merge); src is left empty.
  void AppendFrom(PlainKeyStore& src) {
    assert(count() + src.count() <= capacity());
    std::memcpy(keys_ + count_, src.keys_,
                static_cast<size_t>(src.count_) * sizeof(Key));
    count_ += src.count_;
    src.count_ = 0;
  }

  size_t MemoryBytes() const {
    return static_cast<size_t>(ctx_->capacity) * sizeof(Key);
  }

 private:
  const Context* ctx_;
  Key* keys_;
  int64_t count_ = 0;
};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_PLAIN_KEY_STORE_H_
