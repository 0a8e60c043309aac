// Segment-Trie (paper Section 4): a prefix B-Tree over fixed-size key
// segments, searched with k-ary SIMD search inside every node.
//
// An m-bit key is split into r = m/L segments of L bits (L = 8 by
// default); segment 0 is the most significant. Level E_i of the trie
// indexes segment i: each node stores up to 2^L distinct partial keys in
// linearized k-ary order plus one child pointer (branching levels) or one
// value (leaf level E_{r-1}) per partial key. For L = 8 a node search
// costs exactly two SIMD comparisons (ceil(log17 256) = 2), so a full
// 64-bit traversal costs at most 16 — versus 64 scalar comparisons for
// binary search (paper Section 4).
//
// Nodes are compact single-allocation blocks (compact_node.h), so a
// lookup touches one contiguous block per level — the property that makes
// the trie's fixed upper bound on memory accesses (paper Section 4,
// advantage 2) real on cached hardware.
//
// In-node fast paths (paper Section 4): an empty node terminates the
// search, a single-key node is compared directly, and a completely full
// node is indexed directly like a hash table.
//
// The *optimized* Seg-Trie (lazy expansion, after Boehm et al. and Leis et
// al.) omits the leading levels while they carry a single shared prefix:
// the trie starts as one leaf node and grows upward only when a new key's
// prefix diverges. The omitted prefix is remembered in the trie
// (`prefix_bits_`). Levels are never re-omitted on deletion (the paper
// does not shrink either).
//
// Semantics: a map (one value per distinct key); Insert overwrites.
// Duplicate handling therefore differs from the multimap Seg-Tree — the
// trie deduplicates by construction (DESIGN.md). Values must be
// trivially copyable (compact blocks grow with memcpy).

#ifndef SIMDTREE_SEGTRIE_SEGTRIE_H_
#define SIMDTREE_SEGTRIE_SEGTRIE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <type_traits>
#include <vector>

#include "core/batch.h"
#include "core/batch_sort.h"
#include "core/descent_observer.h"
#include "obs/trace.h"
#include "segtrie/compact_node.h"
#include "simd/bitmask_eval.h"
#include "simd/simd128.h"

namespace simdtree::segtrie {

// Key types the trie accepts directly: unsigned integers, including
// unsigned __int128 where available (16 levels of 8-bit segments). Signed
// and floating-point keys go through key_codec.h.
template <typename T>
inline constexpr bool kIsTrieKey =
#if defined(__SIZEOF_INT128__)
    std::is_unsigned_v<T> || std::is_same_v<T, unsigned __int128>;
#else
    std::is_unsigned_v<T>;
#endif

// Statistics for the memory/size experiments.
struct TrieStats {
  int levels = 0;      // materialized levels (== active depth)
  int max_levels = 0;  // r = key bits / segment bits
  size_t nodes = 0;
  size_t keys = 0;
  size_t memory_bytes = 0;
};

template <typename Key, typename Value, int kSegmentBits = 8,
          typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
class SegTrie {
  static_assert(kIsTrieKey<Key>,
                "the Seg-Trie orders keys by their digital representation; "
                "use unsigned keys (see key_codec.h for signed/float keys)");
  static_assert(kSegmentBits == 4 || kSegmentBits == 8 || kSegmentBits == 16,
                "segment width must be 4, 8, or 16 bits");
  static_assert(static_cast<int>(sizeof(Key)) * 8 % kSegmentBits == 0,
                "key width must be a multiple of the segment width");

 public:
  using KeyType = Key;
  using ValueType = Value;
  using Partial = std::conditional_t<kSegmentBits <= 8, uint8_t, uint16_t>;
  static constexpr int kLevels =
      static_cast<int>(sizeof(Key)) * 8 / kSegmentBits;  // r
  static constexpr int64_t kDomain = int64_t{1} << kSegmentBits;  // 2^L

  struct Options {
    // Lazy expansion: start at leaf level and grow upward on prefix
    // divergence (the paper's "optimized Seg-Trie").
    bool lazy_expansion = false;
  };

  explicit SegTrie(Options options = {})
      : options_(options),
        ctx_(kDomain, simd::LaneTraits<Partial, kBits>::kArity) {
    ResetEmpty();
  }

  ~SegTrie() { FreeAll(); }

  // Movable (nodes never hold pointers into the trie object; the context
  // is passed per call), not copyable.
  SegTrie(SegTrie&& other) noexcept
      : options_(other.options_),
        ctx_(std::move(other.ctx_)),
        root_(other.root_),
        size_(other.size_),
        prefix_bits_(other.prefix_bits_),
        active_levels_(other.active_levels_) {
    other.root_ = nullptr;
    other.size_ = 0;
  }
  SegTrie& operator=(SegTrie&& other) noexcept {
    if (this != &other) {
      FreeAll();
      options_ = other.options_;
      ctx_ = std::move(other.ctx_);
      root_ = other.root_;
      size_ = other.size_;
      prefix_bits_ = other.prefix_bits_;
      active_levels_ = other.active_levels_;
      other.root_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  SegTrie(const SegTrie&) = delete;
  SegTrie& operator=(const SegTrie&) = delete;

  // Builds a trie from ascending *distinct* keys in O(n) without per-key
  // descents: each level is constructed from the contiguous key runs that
  // share the upper segments.
  static SegTrie BulkLoad(const Key* keys, const Value* values, size_t n,
                          Options options = {}) {
    SegTrie trie(options);
    if (n == 0) return trie;
    assert(std::is_sorted(keys, keys + n));
    trie.FreeAll();
    int top_level = 0;
    if (options.lazy_expansion) {
      // First level where the keys diverge (or the leaf level).
      top_level = kLevels - 1;
      for (int level = 0; level < kLevels - 1; ++level) {
        if (Segment(keys[0], level) != Segment(keys[n - 1], level)) {
          top_level = level;
          break;
        }
      }
    }
    trie.active_levels_ = kLevels - top_level;
    trie.prefix_bits_ = UpperBits(keys[0], trie.active_levels_);
    trie.root_ = BulkBuild(trie.ctx_, keys, values, 0, n, top_level);
    trie.size_ = n;
    return trie;
  }

  // --- modification ---------------------------------------------------------

  // Inserts or overwrites; returns true when the key was new.
  bool Insert(Key key, Value value) {
    if (options_.lazy_expansion) {
      if (size_ == 0) {
        prefix_bits_ = UpperBits(key, 1);
        active_levels_ = 1;
      } else {
        GrowForPrefix(key);
      }
    }
    assert(UpperBits(key, active_levels_) == prefix_bits_);

    Inner* parent = nullptr;  // parent of `node`, for relocation fix-up
    int64_t parent_idx = 0;
    void* node = root_;
    for (int level = ActiveTopLevel();; ++level) {
      const Partial partial = Segment(key, level);
      if (level == kLevels - 1) {  // leaf level
        Leaf* leaf = static_cast<Leaf*>(node);
        const int64_t pos = leaf->UpperBound(ctx_, partial);
        if (pos > 0 && leaf->PartialAt(ctx_, pos - 1) == partial) {
          leaf->EntryAt(pos - 1) = value;
          return false;
        }
        Leaf* updated = Leaf::Insert(leaf, ctx_, pos, partial, value);
        FixParent(parent, parent_idx, leaf, updated);
        ++size_;
        return true;
      }
      Inner* inner = static_cast<Inner*>(node);
      const int64_t pos = inner->UpperBound(ctx_, partial);
      if (pos > 0 && inner->PartialAt(ctx_, pos - 1) == partial) {
        parent = inner;
        parent_idx = pos - 1;
        node = inner->EntryAt(pos - 1);
        continue;
      }
      // Missing segment: build the single-entry chain below and link it.
      void* child = BuildChain(key, level + 1, value);
      Inner* updated = Inner::Insert(inner, ctx_, pos, partial, child);
      FixParent(parent, parent_idx, inner, updated);
      ++size_;
      return true;
    }
  }

  // Removes `key`; empty nodes are deleted bottom-up (paper Section 4).
  bool Erase(Key key) {
    if (size_ == 0 || UpperBits(key, active_levels_) != prefix_bits_) {
      return false;
    }
    if (!EraseRec(root_, ActiveTopLevel(), key)) return false;
    --size_;
    if (size_ == 0) {
      FreeAll();
      ResetEmpty();
    }
    return true;
  }

  void Clear() {
    FreeAll();
    ResetEmpty();
  }

  // --- lookup ----------------------------------------------------------------
  //
  // Each lookup is templated on an observer (core/descent_observer.h).

  template <typename Obs = NullObserver>
  std::optional<Value> Find(Key key, Obs&& obs = {}) const {
    obs.Begin();
    if (size_ == 0 || UpperBits(key, active_levels_) != prefix_bits_) {
      return std::nullopt;
    }
    const void* node = root_;
    for (int level = ActiveTopLevel(); level < kLevels - 1; ++level) {
      obs.BeginLevel();
      const Inner* inner = static_cast<const Inner*>(node);
      obs.Visit(1);
      const int64_t idx = inner->FindPartial(ctx_, Segment(key, level), obs);
      obs.EndLevel([&] { return Describe(TraceNodeRef(inner)); });
      if (idx < 0) return std::nullopt;  // terminate above leaf level
      node = inner->EntryAt(idx);
    }
    obs.BeginLevel();
    const Leaf* leaf = static_cast<const Leaf*>(node);
    obs.Visit(1);
    const int64_t idx = leaf->FindPartial(ctx_, Segment(key, kLevels - 1), obs);
    obs.EndLevel([&] { return Describe(TraceNodeRef(leaf)); });
    if (idx < 0) return std::nullopt;
    return leaf->EntryAt(idx);
  }

  bool Contains(Key key) const { return Find(key).has_value(); }

  // Find that also counts nodes visited and in-node comparison steps.
  // Verifies the paper's Section 4 claims: at most active_levels() node
  // accesses, at most ceil(log_k(2^L)) SIMD comparisons per node, zero
  // SIMD comparisons for single-key and full nodes (fast paths), and
  // early termination above leaf level on a missing segment.
  std::optional<Value> FindCounted(Key key, SearchCounters* counters) const {
    CountingObserver counting(counters);
    return Find(key, counting);
  }

  // Find that also records a descent trace (obs/trace.h), one level span
  // per trie node searched. Trie nodes are compact blocks, not tree-pool
  // slots, so node_ref carries the block address's low 32 bits and
  // arena_slab stays unknown; the layout id is the trie-node kind.
  std::optional<Value> FindTraced(Key key, obs::DescentTrace* t) const {
    TraceObserver traced(t);
    return traced.Stamp(key, Find(key, traced));
  }

  // Batched point lookup: out[i] = pointer to the stored value of
  // keys[i], or nullptr when absent. A group of `group` queries descends
  // the trie in lockstep one level at a time; each query's child node —
  // one compact single-allocation block — is prefetched as soon as it is
  // known, so the per-level misses of the group overlap instead of
  // serializing (see btree/batch_descent.h for the pipeline rationale).
  // Queries that terminate early on a missing segment drop out of the
  // group. Pointers stay valid until the next mutation. A non-null
  // `counters` accumulates the batch's logical cost (nodes visited,
  // SIMD/scalar comparisons) identically to summing FindCounted over the
  // batch.
  void FindBatch(const Key* keys, size_t n, const Value** out,
                 int group = kDefaultBatchGroup,
                 SearchCounters* counters = nullptr) const {
    WithCounters(counters, [&](auto& o) { FindBatch(keys, n, out, group, o); });
  }
  template <typename Obs>
  void FindBatch(const Key* keys, size_t n, const Value** out, int group,
                 Obs& obs) const {
    group = ClampBatchGroup(group);
    for (size_t off = 0; off < n; off += static_cast<size_t>(group)) {
      const int g = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(group), n - off));
      FindGroup(keys + off, g, out + off, obs);
    }
  }

  // Grouped (level-wise) batched lookup: sorts the batch once
  // (core/batch_sort.h) and descends with a frontier of (node,
  // contiguous query run) pairs, grouping the sorted run by its
  // key-prefix at every trie level — queries sharing the segment path
  // resolve each (node, partial) pair once instead of once per query.
  // Answers match FindBatch exactly. A non-null `counters` accumulates
  // the same logical cost as summing FindCounted over the batch (the
  // per-(node, partial) search cost is deterministic, so one counted
  // probe is replicated per query sharing it); nodes_loaded additionally
  // counts each frontier node once per batch. Wins once the batch is
  // large relative to active_levels() — see UseGroupedDescent
  // (core/batch.h).
  void FindBatchGrouped(const Key* keys, size_t n, const Value** out,
                        SearchCounters* counters = nullptr) const {
    WithCounters(counters, [&](auto& o) { FindBatchGrouped(keys, n, out, o); });
  }
  template <typename Obs>
  void FindBatchGrouped(const Key* keys, size_t n, const Value** out,
                        Obs& obs) const {
    if (n == 0) return;
    if (size_ == 0) {
      for (size_t i = 0; i < n; ++i) out[i] = nullptr;
      return;
    }
    SortedBatch<Key> sorted;
    SortBatchWithPermutation(keys, n, &sorted);
    const Key* skeys = sorted.keys.data();
    const uint32_t* perm = sorted.perm.data();
    // The prefix gate: only keys sharing the omitted upper bits enter
    // the trie, and they form one contiguous range of the sorted batch.
    const Key lo_key = ShiftUp(prefix_bits_, active_levels_);
    const Key hi_key = lo_key | LowMask(active_levels_ * kSegmentBits);
    const uint32_t begin = static_cast<uint32_t>(
        std::lower_bound(skeys, skeys + n, lo_key) - skeys);
    const uint32_t end = static_cast<uint32_t>(
        std::upper_bound(skeys + begin, skeys + n, hi_key) - skeys);
    for (uint32_t j = 0; j < begin; ++j) out[perm[j]] = nullptr;
    for (uint32_t j = end; j < n; ++j) out[perm[j]] = nullptr;
    if (begin == end) return;

    std::vector<TrieRun> frontier, next;
    frontier.push_back(TrieRun{root_, begin, end});
    for (int level = ActiveTopLevel();
         level < kLevels - 1 && !frontier.empty(); ++level) {
      obs.BeginLevel();
      next.clear();
      // Queries with equal segments at and above `level` agree on all
      // bits down to `shift`, so a partial's sub-run ends at the first
      // query beyond cur | low-bits-set.
      const int shift = (kLevels - 1 - level) * kSegmentBits;
      for (size_t r = 0; r < frontier.size(); ++r) {
        if (r + kGroupedRunLookahead < frontier.size()) {
          PrefetchRead(frontier[r + kGroupedRunLookahead].node);
        }
        const TrieRun& run = frontier[r];
        const Inner* inner = static_cast<const Inner*>(run.node);
        obs.Visit(run.end - run.begin);
        obs.Load();
        uint32_t cur = run.begin;
        while (cur < run.end) {
          const Key sub_hi = skeys[cur] | LowMask(shift);
          const uint32_t sub_end = static_cast<uint32_t>(
              std::upper_bound(skeys + cur + 1, skeys + run.end, sub_hi) -
              skeys);
          const int64_t idx = ResolveShared(inner, Segment(skeys[cur], level),
                                            sub_end - cur, obs);
          if (idx < 0) {  // missing segment terminates the sub-run early
            for (uint32_t j = cur; j < sub_end; ++j) out[perm[j]] = nullptr;
          } else {
            const void* child = inner->EntryAt(idx);
            PrefetchRead(child);
            PrefetchRead(static_cast<const char*>(child) + 64);
            next.push_back(TrieRun{child, cur, sub_end});
          }
          cur = sub_end;
        }
      }
      obs.EndLevel([&] { return Describe(frontier.size()); });
      frontier.swap(next);
    }
    obs.BeginLevel();
    for (size_t r = 0; r < frontier.size(); ++r) {
      if (r + kGroupedRunLookahead < frontier.size()) {
        PrefetchRead(frontier[r + kGroupedRunLookahead].node);
      }
      const TrieRun& run = frontier[r];
      const Leaf* leaf = static_cast<const Leaf*>(run.node);
      obs.Visit(run.end - run.begin);
      obs.Load();
      uint32_t cur = run.begin;
      while (cur < run.end) {
        // At leaf level the sub-run is the run of exactly-equal keys.
        const Key q = skeys[cur];
        uint32_t sub_end = cur + 1;
        while (sub_end < run.end && skeys[sub_end] == q) ++sub_end;
        const int64_t idx =
            ResolveShared(leaf, Segment(q, kLevels - 1), sub_end - cur, obs);
        const Value* v = idx < 0 ? nullptr : &leaf->EntryAt(idx);
        for (uint32_t j = cur; j < sub_end; ++j) out[perm[j]] = v;
        cur = sub_end;
      }
    }
    obs.EndLevel([&] { return Describe(frontier.size()); });
  }

  // In-order traversal: fn(key, value) in ascending key order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    if (size_ == 0) return;
    ForEachRec(root_, ActiveTopLevel(),
               ShiftUp(prefix_bits_, active_levels_), fn);
  }

  // Ordered range scan: fn(key, value) for lo <= key < hi (or <= hi when
  // hi_inclusive), pruning whole subtrees by their key range. Tries are
  // ordered structures, so ranged access costs O(log + output).
  template <typename Fn>
  void ScanRange(Key lo, Key hi, Fn fn, bool hi_inclusive = false) const {
    if (size_ == 0) return;
    if (!hi_inclusive) {
      if (hi == 0) return;
      hi = static_cast<Key>(hi - 1);  // internal bounds are inclusive
    }
    if (lo > hi) return;
    ScanRec(root_, ActiveTopLevel(), ShiftUp(prefix_bits_, active_levels_),
            lo, hi, fn);
  }

  // Number of keys in [lo, hi) (or [lo, hi] when hi_inclusive).
  size_t CountRange(Key lo, Key hi, bool hi_inclusive = false) const {
    size_t n = 0;
    ScanRange(lo, hi, [&n](Key, const Value&) { ++n; }, hi_inclusive);
    return n;
  }

  // --- introspection ----------------------------------------------------------

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int active_levels() const { return active_levels_; }
  static constexpr int max_levels() { return kLevels; }

  TrieStats Stats() const {
    TrieStats s;
    s.levels = active_levels_;
    s.max_levels = kLevels;
    s.keys = size_;
    s.memory_bytes =
        sizeof(*this) +
        static_cast<size_t>(ctx_.layout.slots()) * 2 * sizeof(uint32_t);
    if (size_ > 0) CollectStats(root_, ActiveTopLevel(), &s);
    return s;
  }

  size_t MemoryBytes() const { return Stats().memory_bytes; }

  // Occupancy of the node arena (reserved slab bytes vs. live block
  // bytes); all-zero counters in heap mode except allocs/frees.
  mem::ArenaStats MemStats() const { return ctx_.arena.Stats(); }

  bool Validate() const {
    if (size_ == 0) {
      if (root_ == nullptr) return false;
      return EmptyRootIsLeaf()
                 ? static_cast<const Leaf*>(root_)->count() == 0
                 : static_cast<const Inner*>(root_)->count() == 0;
    }
    size_t counted = 0;
    if (!ValidateRec(root_, ActiveTopLevel(), &counted)) return false;
    return counted == size_;
  }

 private:
  using Leaf = CompactTrieNode<Partial, Value, Eval, B, kBits>;
  using Inner = CompactTrieNode<Partial, void*, Eval, B, kBits>;

  // First materialized level index (0 for the plain trie).
  int ActiveTopLevel() const { return kLevels - active_levels_; }

  // Trace node reference for a compact node: the block address's low 32
  // bits (enough to correlate spans within one trace).
  static uint32_t TraceNodeRef(const void* node) {
    return static_cast<uint32_t>(reinterpret_cast<uintptr_t>(node));
  }

  // A trace span: node_ref is a node's TraceNodeRef for a single key, the
  // nodes a level loaded for a batch.
  LevelDesc Describe(size_t node_ref) const {
    return LevelDesc{static_cast<uint32_t>(node_ref),
                     obs::kTraceLayoutTrieNode, obs::kTraceSlabUnknown,
                     options_.lazy_expansion
                         ? obs::TraceBackend::kOptimizedSegTrie
                         : obs::TraceBackend::kSegTrie};
  }

  static Partial Segment(Key key, int level) {
    const int shift = (kLevels - 1 - level) * kSegmentBits;
    return static_cast<Partial>((key >> shift) &
                                static_cast<Key>(kDomain - 1));
  }

  // key >> (levels_from_bottom * L), shift-safe at the full width.
  static Key UpperBits(Key key, int levels_from_bottom) {
    const int shift = levels_from_bottom * kSegmentBits;
    if (shift >= static_cast<int>(sizeof(Key)) * 8) return 0;
    return key >> shift;
  }

  static Key ShiftUp(Key bits, int levels_from_bottom) {
    const int shift = levels_from_bottom * kSegmentBits;
    if (shift >= static_cast<int>(sizeof(Key)) * 8) return 0;
    return bits << shift;
  }

  // Whether the empty sentinel root sits at leaf level (lazy expansion
  // starts at the bottom; the plain trie's root is branching for r > 1).
  bool EmptyRootIsLeaf() const {
    return options_.lazy_expansion || kLevels == 1;
  }

  void ResetEmpty() {
    constexpr int64_t kLanes = simd::LaneTraits<Partial, kBits>::kLanes;
    root_ = EmptyRootIsLeaf()
                ? static_cast<void*>(Leaf::Allocate(ctx_, kLanes, 4))
                : static_cast<void*>(Inner::Allocate(ctx_, kLanes, 4));
    size_ = 0;
    prefix_bits_ = 0;
    active_levels_ = options_.lazy_expansion ? 1 : kLevels;
  }

  void FixParent(Inner* parent, int64_t idx, void* old_node,
                 void* new_node) {
    if (old_node == new_node) return;
    if (parent == nullptr) {
      root_ = new_node;
    } else {
      parent->EntryAt(idx) = new_node;
    }
  }

  // Builds the single-entry chain for segments [level..kLevels-1] of key.
  void* BuildChain(Key key, int level, Value value) {
    void* below = Leaf::MakeSingle(ctx_, Segment(key, kLevels - 1), value);
    for (int l = kLevels - 2; l >= level; --l) {
      below = Inner::MakeSingle(ctx_, Segment(key, l), below);
    }
    return below;
  }

  // Lazy expansion: add levels above the root until the stored prefix
  // covers `key` (paper: "incrementally builds up the Seg-Trie starting
  // from leaf level").
  void GrowForPrefix(Key key) {
    while (UpperBits(key, active_levels_) != prefix_bits_ &&
           active_levels_ < kLevels) {
      root_ = Inner::MakeSingle(
          ctx_,
          static_cast<Partial>(prefix_bits_ & static_cast<Key>(kDomain - 1)),
          root_);
      prefix_bits_ = UpperBits(prefix_bits_, 1);
      ++active_levels_;
    }
  }

  bool EraseRec(void* node, int level, Key key) {
    const Partial partial = Segment(key, level);
    if (level == kLevels - 1) {
      Leaf* leaf = static_cast<Leaf*>(node);
      const int64_t idx = leaf->FindPartial(ctx_, partial);
      if (idx < 0) return false;
      Leaf::Remove(leaf, ctx_, idx);
      return true;
    }
    Inner* inner = static_cast<Inner*>(node);
    const int64_t idx = inner->FindPartial(ctx_, partial);
    if (idx < 0) return false;
    void* child = inner->EntryAt(idx);
    if (!EraseRec(child, level + 1, key)) return false;
    const int64_t child_count =
        level + 1 == kLevels - 1 ? static_cast<Leaf*>(child)->count()
                                 : static_cast<Inner*>(child)->count();
    if (child_count == 0) {
      if (level + 1 == kLevels - 1) {
        Leaf::Free(ctx_, static_cast<Leaf*>(child));
      } else {
        Inner::Free(ctx_, static_cast<Inner*>(child));
      }
      Inner::Remove(inner, ctx_, idx);
    }
    return true;
  }

  void FreeSubtree(void* node, int level) {
    if (level == kLevels - 1) {
      Leaf::Free(ctx_, static_cast<Leaf*>(node));
      return;
    }
    Inner* inner = static_cast<Inner*>(node);
    for (int64_t i = 0; i < inner->count(); ++i) {
      FreeSubtree(inner->EntryAt(i), level + 1);
    }
    Inner::Free(ctx_, inner);
  }

  // Every node of the trie lives in ctx_.arena, so teardown is an
  // O(slabs) arena reset; the recursive walk is only the heap-mode
  // (SIMDTREE_DISABLE_ARENA) fallback, where blocks must be returned to
  // the allocator one by one.
  void FreeAll() {
    if (root_ == nullptr) return;
    if (ctx_.arena.arena_mode()) {
      ctx_.arena.Reset();
    } else if (size_ == 0) {
      if (EmptyRootIsLeaf()) {
        Leaf::Free(ctx_, static_cast<Leaf*>(root_));
      } else {
        Inner::Free(ctx_, static_cast<Inner*>(root_));
      }
    } else {
      FreeSubtree(root_, ActiveTopLevel());
    }
    root_ = nullptr;
  }

  template <typename Fn>
  void ForEachRec(const void* node, int level, Key prefix, Fn& fn) const {
    const int shift = (kLevels - 1 - level) * kSegmentBits;
    if (level == kLevels - 1) {
      const Leaf* leaf = static_cast<const Leaf*>(node);
      for (int64_t i = 0; i < leaf->count(); ++i) {
        fn(prefix | (static_cast<Key>(leaf->PartialAt(ctx_, i)) << shift),
           leaf->EntryAt(i));
      }
      return;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    for (int64_t i = 0; i < inner->count(); ++i) {
      ForEachRec(inner->EntryAt(i), level + 1,
                 prefix |
                     (static_cast<Key>(inner->PartialAt(ctx_, i)) << shift),
                 fn);
    }
  }

  // One lockstep group of the batched lookup. A compact node is a single
  // allocation, so two line prefetches (header + linearized root k-ary
  // node, then the entry area) cover the next level's touch pattern.
  template <typename Obs>
  void FindGroup(const Key* keys, int g, const Value** out, Obs& obs) const {
    const void* node[kMaxBatchGroup];
    bool done[kMaxBatchGroup];
    obs.BeginGroup();
    for (int i = 0; i < g; ++i) {
      done[i] = size_ == 0 ||
                UpperBits(keys[i], active_levels_) != prefix_bits_;
      if (done[i]) out[i] = nullptr;
      node[i] = root_;
    }
    for (int level = ActiveTopLevel(); level < kLevels - 1; ++level) {
      obs.BeginLevel();
      uint32_t loaded = 0;
      for (int i = 0; i < g; ++i) {
        if (done[i]) continue;
        const Inner* inner = static_cast<const Inner*>(node[i]);
        ++loaded;
        obs.Visit(1);
        const int64_t idx =
            inner->FindPartial(ctx_, Segment(keys[i], level), obs);
        if (idx < 0) {  // missing segment terminates this query early
          out[i] = nullptr;
          done[i] = true;
          continue;
        }
        const void* child = inner->EntryAt(idx);
        node[i] = child;
        PrefetchRead(child);
        PrefetchRead(static_cast<const char*>(child) + 64);
      }
      obs.EndLevel([&] { return Describe(loaded); });
    }
    obs.BeginLevel();
    uint32_t loaded = 0;
    for (int i = 0; i < g; ++i) {
      if (done[i]) continue;
      const Leaf* leaf = static_cast<const Leaf*>(node[i]);
      ++loaded;
      obs.Visit(1);
      const int64_t idx =
          leaf->FindPartial(ctx_, Segment(keys[i], kLevels - 1), obs);
      out[i] = idx < 0 ? nullptr : &leaf->EntryAt(idx);
    }
    obs.EndLevel([&] { return Describe(loaded); });
  }

  // Contiguous run of sorted batch queries routed to one trie node.
  struct TrieRun {
    const void* node;
    uint32_t begin;
    uint32_t end;
  };

  // All key bits below `shift` set, shift-safe at the full key width.
  static Key LowMask(int shift) {
    if (shift >= static_cast<int>(sizeof(Key)) * 8) return ~Key{0};
    return (Key{1} << shift) - Key{1};
  }

  // Resolves one (node, partial) pair shared by `len` sorted queries.
  // The probe cost depends only on the pair, so a counting or tracing
  // observer gets a single counted probe's comparisons replicated per
  // query, keeping parity with summed single-query FindCounted calls.
  template <typename NodeT, typename Obs>
  int64_t ResolveShared(const NodeT* node, Partial partial, uint32_t len,
                        Obs& obs) const {
    if constexpr (Obs::kCounts || Obs::kSpans) {
      SearchCounters one;
      CountingObserver counting(&one);
      const int64_t idx = node->FindPartial(ctx_, partial, counting);
      obs.cmps()->simd_comparisons += one.simd_comparisons * len;
      obs.cmps()->scalar_comparisons += one.scalar_comparisons * len;
      return idx;
    } else {
      return node->FindPartial(ctx_, partial);
    }
  }

  // Recursive bulk builder: keys[begin, end) share all segments above
  // `level`; returns the subtree for these keys rooted at `level`.
  static void* BulkBuild(const typename Inner::Context& ctx,
                         const Key* keys, const Value* values, size_t begin,
                         size_t end, int level) {
    const size_t n = end - begin;
    if (level == kLevels - 1) {
      // Distinct sorted keys sharing the prefix => distinct sorted
      // partials; build the leaf in one shot.
      std::vector<Partial>& partials = ctx.scratch;
      partials.resize(n);
      for (size_t i = 0; i < n; ++i) {
        partials[i] = Segment(keys[begin + i], level);
      }
      return Leaf::BuildFromSorted(ctx, partials.data(), values + begin,
                                   static_cast<int64_t>(n));
    }
    std::vector<Partial> partials;
    std::vector<void*> children;
    size_t run_start = begin;
    while (run_start < end) {
      const Partial seg = Segment(keys[run_start], level);
      size_t run_end = run_start + 1;
      while (run_end < end && Segment(keys[run_end], level) == seg) {
        ++run_end;
      }
      partials.push_back(seg);
      children.push_back(
          BulkBuild(ctx, keys, values, run_start, run_end, level + 1));
      run_start = run_end;
    }
    return Inner::BuildFromSorted(ctx, partials.data(), children.data(),
                                  static_cast<int64_t>(partials.size()));
  }

  template <typename Fn>
  void ScanRec(const void* node, int level, Key prefix, Key lo, Key hi,
               Fn& fn) const {
    const int shift = (kLevels - 1 - level) * kSegmentBits;
    // Keys below entry i span [base, base | low_mask].
    const Key low_mask =
        shift == 0 ? Key{0} : static_cast<Key>((Key{1} << shift) - 1);
    const int64_t n = level == kLevels - 1
                          ? static_cast<const Leaf*>(node)->count()
                          : static_cast<const Inner*>(node)->count();
    // First entry whose subtree can reach lo.
    int64_t i = 0;
    if (lo > prefix) {
      const Partial lo_seg = Segment(lo, level);
      if (lo_seg > 0) {
        i = level == kLevels - 1
                ? static_cast<const Leaf*>(node)->UpperBound(
                      ctx_, static_cast<Partial>(lo_seg - 1))
                : static_cast<const Inner*>(node)->UpperBound(
                      ctx_, static_cast<Partial>(lo_seg - 1));
      }
    }
    for (; i < n; ++i) {
      Partial partial;
      if (level == kLevels - 1) {
        const Leaf* leaf = static_cast<const Leaf*>(node);
        partial = leaf->PartialAt(ctx_, i);
        const Key key = prefix | (static_cast<Key>(partial) << shift);
        if (key > hi) break;
        if (key >= lo) fn(key, leaf->EntryAt(i));
      } else {
        const Inner* inner = static_cast<const Inner*>(node);
        partial = inner->PartialAt(ctx_, i);
        const Key base = prefix | (static_cast<Key>(partial) << shift);
        if (base > hi) break;
        if ((base | low_mask) < lo) continue;
        ScanRec(inner->EntryAt(i), level + 1, base, lo, hi, fn);
      }
    }
  }

  bool ValidateRec(const void* node, int level, size_t* counted) const {
    const int64_t n = level == kLevels - 1
                          ? static_cast<const Leaf*>(node)->count()
                          : static_cast<const Inner*>(node)->count();
    if (n <= 0 || n > kDomain) return false;
    if (level == kLevels - 1) {
      const Leaf* leaf = static_cast<const Leaf*>(node);
      for (int64_t i = 1; i < n; ++i) {
        if (leaf->PartialAt(ctx_, i - 1) >= leaf->PartialAt(ctx_, i)) {
          return false;
        }
      }
      *counted += static_cast<size_t>(n);
      return true;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    for (int64_t i = 1; i < n; ++i) {
      if (inner->PartialAt(ctx_, i - 1) >= inner->PartialAt(ctx_, i)) {
        return false;
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      if (!ValidateRec(inner->EntryAt(i), level + 1, counted)) return false;
    }
    return true;
  }

  void CollectStats(const void* node, int level, TrieStats* s) const {
    ++s->nodes;
    if (level == kLevels - 1) {
      s->memory_bytes += static_cast<const Leaf*>(node)->MemoryBytes();
      return;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    s->memory_bytes += inner->MemoryBytes();
    for (int64_t i = 0; i < inner->count(); ++i) {
      CollectStats(inner->EntryAt(i), level + 1, s);
    }
  }

  Options options_;
  typename Inner::Context ctx_;  // shared by Leaf too (same Partial type)
  void* root_ = nullptr;
  size_t size_ = 0;
  Key prefix_bits_ = 0;    // shared upper bits of all keys (lazy expansion)
  int active_levels_ = 0;  // materialized levels, counted from the bottom
};

// The paper's "optimized Seg-Trie": lazy expansion enabled.
template <typename Key, typename Value, int kSegmentBits = 8,
          typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
class OptimizedSegTrie
    : public SegTrie<Key, Value, kSegmentBits, Eval, B, kBits> {
 public:
  using Base = SegTrie<Key, Value, kSegmentBits, Eval, B, kBits>;
  OptimizedSegTrie() : Base(typename Base::Options{.lazy_expansion = true}) {}
};

}  // namespace simdtree::segtrie

#endif  // SIMDTREE_SEGTRIE_SEGTRIE_H_
