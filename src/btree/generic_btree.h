// Generic main-memory B+-Tree, parameterized on the in-node key store.
//
// The paper's Seg-Tree "changes the search method inside the nodes from
// commonly binary search to k-ary search" while "the traversal across the
// nodes from the root to the leaves keeps unchanged compared to B+-Trees"
// (Section 3.1). This file is that shared, unchanged structure: branching
// nodes hold separator keys and child references, leaves hold keys and
// values and are chained for range scans. The key-store policy decides how
// a node's keys are stored and searched:
//
//   * btree::PlainKeyStore    — sorted array + scalar search (baseline),
//   * segtree::SegKeyStore    — linearized k-ary order + SIMD search.
//
// KeyStore policy contract (duck-typed, see plain_key_store.h):
//   struct Context;                    // shared per-tree, per-node-kind
//     int64_t key_storage_slots();     // physical Key slots per node
//   explicit KeyStore(const Context&); // standalone: owns its storage
//   KeyStore(const Context&, Key*);    // in-node: external storage of
//                                      // key_storage_slots() Keys
//   int64_t count() / capacity();
//   Key At(int64_t logical_pos);       // logical == sorted position
//   template <typename Counters = NoCounters>
//   int64_t UpperBound(Key, Counters = {});  // callers always pass a
//       // Counters: NoCounters instantiates the body without counting,
//       // a SearchCounters* with. Not a SearchCounters* overload: an
//       // uncounted call would reach it as nullptr (util/counters.h).
//   int64_t LowerBound(Key);
//   void InsertAt(pos, Key) / RemoveAt(pos);
//   void AssignSorted(const Key*, n) / Clear();
//   void MoveSuffixTo(KeyStore& dst, from) / AppendFrom(KeyStore& src);
//   size_t MemoryBytes();
//
// Memory layout (PR 4): every node is one fixed-size block from a
// per-tree mem::NodePool — [node header | keys | values/children] — so a
// node's separators and child references share the node's cache lines,
// and the whole tree lives in a few hugepage-backed slabs instead of one
// heap allocation per node. Inner nodes store children as **32-bit
// compressed references** (mem::NodePool slots, top bit = leaf pool):
// half the pointer width of the heap design, decoded with one load from
// the pool's slab table. Leaf chain pointers stay raw (slabs never
// move). Clear()/teardown release slabs in O(slabs) without visiting
// nodes. SIMDTREE_DISABLE_ARENA=1 falls back to one allocation per
// block — same layout, heap placement — as the A/B baseline.
//
// Child references and values stay in logical (sorted) order regardless
// of the key store's physical layout — the paper's locality property
// that keeps updates node-local.
//
// Semantics: a multimap. Insert allows duplicate keys; Find returns some
// occurrence's value; Erase removes one occurrence. Separator invariant is
// the closed interval: every key in subtree i lies in [sep[i-1], sep[i]].
//
// Thread compatibility: concurrent reads are safe with the plain store;
// any mutation requires external synchronization (the paper's evaluation
// is single-threaded; multi-threading is its future work). On top of
// that baseline, EnableConcurrentReads() arms optimistic lock coupling:
// every node carries an olc::VersionWord, writers version-lock exactly
// the nodes they mutate, and the *Optimistic read paths (FindOptimistic,
// ScanRangeOptimistic, the batch engines in batch_descent.h) descend
// without writing any shared state, validating versions before trusting
// a node and reporting kConflict for the caller to retry. Readers must
// hold an olc::EpochGuard pin; freed nodes are marked dead and their
// memory is quarantined by the pools until all pinned readers advance
// (mem/arena.h). Writers still require external mutual exclusion among
// themselves — the concurrency wrappers' per-shard exclusive lock.

#ifndef SIMDTREE_BTREE_GENERIC_BTREE_H_
#define SIMDTREE_BTREE_GENERIC_BTREE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "btree/batch_descent.h"
#include "core/descent_observer.h"
#include "core/olc.h"
#include "mem/arena.h"
#include "obs/trace.h"
#include "util/counters.h"

namespace simdtree::btree {

// Aggregate statistics for reporting (EXPERIMENTS.md tables).
struct TreeStats {
  int height = 0;  // levels including leaf level; 0 for an empty tree
  size_t inner_nodes = 0;
  size_t leaf_nodes = 0;
  size_t keys = 0;
  size_t memory_bytes = 0;
  double avg_leaf_fill = 0.0;
  mem::ArenaStats arena;  // merged leaf + inner pool occupancy
};

template <typename Key, typename Value, typename KeyStore>
class GenericBPlusTree {
 public:
  using KeyType = Key;
  using ValueType = Value;
  using Context = typename KeyStore::Context;

  // Compressed node reference: a mem::NodePool slot with the top bit
  // distinguishing the leaf pool from the inner pool.
  using NodeRef = uint32_t;
  static constexpr NodeRef kLeafBit = 0x80000000u;

  class ConstIterator;

  struct Config {
    Context leaf_ctx;
    Context inner_ctx;
    mem::ArenaOptions arena{};
  };

  // Contexts are heap-allocated because nodes keep stable pointers to
  // them; moving the tree must not move the contexts. Pool block sizes
  // derive from the contexts: one block holds the node header, the key
  // store's physical slots, and the values / child-ref array.
  explicit GenericBPlusTree(Config config)
      : leaf_ctx_(std::make_unique<Context>(std::move(config.leaf_ctx))),
        inner_ctx_(std::make_unique<Context>(std::move(config.inner_ctx))),
        leaf_keys_off_(
            mem::internal::AlignUp(sizeof(LeafNode), kKeyStorageAlign)),
        leaf_values_off_(mem::internal::AlignUp(
            leaf_keys_off_ +
                static_cast<size_t>(leaf_ctx_->key_storage_slots()) *
                    sizeof(Key),
            alignof(Value))),
        inner_keys_off_(
            mem::internal::AlignUp(sizeof(InnerNode), kKeyStorageAlign)),
        inner_children_off_(mem::internal::AlignUp(
            inner_keys_off_ +
                static_cast<size_t>(inner_ctx_->key_storage_slots()) *
                    sizeof(Key),
            alignof(NodeRef))),
        leaf_pool_(leaf_values_off_ +
                       static_cast<size_t>(leaf_ctx_->capacity) * sizeof(Value),
                   config.arena.slab_bytes, RefPayloadBits(config.arena)),
        inner_pool_(inner_children_off_ +
                        (static_cast<size_t>(inner_ctx_->capacity) + 1) *
                            sizeof(NodeRef),
                    config.arena.slab_bytes, RefPayloadBits(config.arena)) {
    assert(leaf_ctx_->capacity >= 3);
    assert(inner_ctx_->capacity >= 3);
  }

  ~GenericBPlusTree() { Clear(); }

  GenericBPlusTree(GenericBPlusTree&& other) noexcept
      : leaf_ctx_(std::move(other.leaf_ctx_)),
        inner_ctx_(std::move(other.inner_ctx_)),
        leaf_keys_off_(other.leaf_keys_off_),
        leaf_values_off_(other.leaf_values_off_),
        inner_keys_off_(other.inner_keys_off_),
        inner_children_off_(other.inner_children_off_),
        leaf_pool_(std::move(other.leaf_pool_)),
        inner_pool_(std::move(other.inner_pool_)),
        root_(other.root_),
        first_leaf_(other.first_leaf_),
        size_(other.size_) {
    height_hint_.store(other.height_hint_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    concurrent_ = other.concurrent_;
    other.root_ = nullptr;
    other.first_leaf_ = nullptr;
    other.size_ = 0;
    other.height_hint_.store(0, std::memory_order_relaxed);
    other.concurrent_ = false;
  }
  GenericBPlusTree& operator=(GenericBPlusTree&& other) noexcept {
    if (this != &other) {
      Clear();
      leaf_ctx_ = std::move(other.leaf_ctx_);
      inner_ctx_ = std::move(other.inner_ctx_);
      leaf_keys_off_ = other.leaf_keys_off_;
      leaf_values_off_ = other.leaf_values_off_;
      inner_keys_off_ = other.inner_keys_off_;
      inner_children_off_ = other.inner_children_off_;
      leaf_pool_ = std::move(other.leaf_pool_);
      inner_pool_ = std::move(other.inner_pool_);
      root_ = other.root_;
      first_leaf_ = other.first_leaf_;
      size_ = other.size_;
      height_hint_.store(other.height_hint_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      concurrent_ = other.concurrent_;
      other.root_ = nullptr;
      other.first_leaf_ = nullptr;
      other.size_ = 0;
      other.height_hint_.store(0, std::memory_order_relaxed);
      other.concurrent_ = false;
    }
    return *this;
  }
  GenericBPlusTree(const GenericBPlusTree&) = delete;
  GenericBPlusTree& operator=(const GenericBPlusTree&) = delete;

  // --- modification ------------------------------------------------------

  // Inserts a key/value pair; duplicate keys are allowed and keep
  // insertion order among equals. Throws std::bad_alloc if the 32-bit
  // reference space of a pool is exhausted (≈2^31 nodes per kind at the
  // default ArenaOptions).
  void Insert(Key key, Value value) {
    if (root_ == nullptr) {
      LeafNode* leaf = NewLeaf();
      leaf->keys.InsertAt(0, key);
      leaf->values.insert(0, std::move(value));
      {
        TreeGuard tg(this);
        root_ = leaf;
        first_leaf_ = leaf;
      }
      height_hint_.store(1, std::memory_order_relaxed);
      size_ = 1;
      return;
    }
    if (IsFull(root_)) {
      // The old root stays version-locked for the whole grow: a reader
      // that loads root_ just before the swap must conflict rather than
      // validate against the already-split (half-coverage) old root.
      NodeGuard g(this);
      g.Add(root_);
      InnerNode* new_root = NewInner();
      new_root->children.push_back(root_->self);
      SplitChild(new_root, 0, g);
      TreeGuard tg(this);
      root_ = new_root;
      height_hint_.fetch_add(1, std::memory_order_relaxed);
    }
    InsertNonFull(root_, key, std::move(value));
    ++size_;
  }

  // Removes one occurrence of `key`. Returns true if a pair was removed.
  bool Erase(Key key) {
    if (root_ == nullptr) return false;
    if (!EraseRec(root_, key)) return false;
    --size_;
    ShrinkRoot();
    return true;
  }

  // O(slabs), not O(nodes): both pools release their slabs wholesale.
  // Node destructors are skipped (nodes own nothing — keys and children
  // live inside the block); values are destroyed only when Value has a
  // non-trivial destructor.
  void Clear() {
    if constexpr (!std::is_trivially_destructible_v<Value>) {
      for (LeafNode* l = first_leaf_; l != nullptr; l = l->next) {
        l->values.DestroyAll();
      }
    }
    // Unpublish the structure before resetting the pools: with deferred
    // reclamation armed, readers mid-descent keep validating against
    // the intact pre-Clear slabs (quarantined, not released) and their
    // results linearize before the Clear; new readers see the empty
    // tree immediately.
    {
      TreeGuard tg(this);
      root_ = nullptr;
      first_leaf_ = nullptr;
    }
    height_hint_.store(0, std::memory_order_relaxed);
    leaf_pool_.Reset();
    inner_pool_.Reset();
    size_ = 0;
  }

  // --- lookup -------------------------------------------------------------
  //
  // Every lookup runs an engine of batch_descent.h under the Locked
  // policy; `obs` takes any observer of core/descent_observer.h.

  // Value of some occurrence of `key`, or nullopt.
  template <typename Obs = NullObserver>
  std::optional<Value> Find(Key key, Obs&& obs = {}) const {
    const Value* v = nullptr;
    Descent::template Find<Locked>(*this, key, &v, obs);
    return v != nullptr ? std::optional<Value>(*v) : std::nullopt;
  }

  bool Contains(Key key) const {
    const Value* v = nullptr;
    NullObserver none;
    Descent::template Find<Locked>(*this, key, &v, none);
    return v != nullptr;
  }

  // Find that also counts the nodes visited on the root-to-leaf descent
  // (paper: one node search per tree level, plus one for a step into the
  // previous leaf).
  std::optional<Value> FindCounted(Key key, SearchCounters* counters) const {
    CountingObserver counting(counters);
    return Find(key, counting);
  }

  // Find that also records a descent trace (obs/trace.h): one level span
  // per node searched — compressed node ref, key-store layout, arena slab,
  // in-node comparison counts, cycles — plus the backend, key and found
  // flag.
  std::optional<Value> FindTraced(Key key, obs::DescentTrace* t) const {
    TraceObserver traced(t);
    return traced.Stamp(key, Find(key, traced));
  }

  // Batched point lookup: out[i] = pointer to the stored value of some
  // occurrence of keys[i], or nullptr when absent. `group` queries descend
  // in lockstep one level at a time with each query's next node
  // prefetched, overlapping the per-level cache misses that serialize in
  // Find. Pointers stay valid until the next mutation. A non-null
  // `counters` accumulates nodes_visited identically to summing
  // FindCounted over the batch.
  void FindBatch(const Key* keys, size_t n, const Value** out,
                 int group = kDefaultBatchGroup,
                 SearchCounters* counters = nullptr) const {
    WithCounters(counters, [&](auto& o) { FindBatch(keys, n, out, group, o); });
  }
  template <typename Obs>
  void FindBatch(const Key* keys, size_t n, const Value** out, int group,
                 Obs& obs) const {
    Descent::FindBatch(*this, keys, n, Locked{out}, group, obs);
  }

  // Batched lower bound: out[i] = iterator at the first pair with
  // key >= keys[i] (invalid iterator when none), equal to
  // LowerBoundIter(keys[i]) for every i, with the same pipelined descent
  // as FindBatch.
  void LowerBoundBatch(const Key* keys, size_t n, ConstIterator* out,
                       int group = kDefaultBatchGroup,
                       SearchCounters* counters = nullptr) const {
    WithCounters(counters, [&](auto& o) {
      Descent::LowerBoundBatch(*this, keys, n, out, group, o);
    });
  }

  // Grouped (level-wise) batched lookup: sorts the batch once and visits
  // each tree node once per batch, partitioning the sorted query run
  // across a node's children instead of re-searching the node per query.
  // Same answers and logical counters as FindBatch; counters->nodes_loaded
  // counts each node once, so nodes_visited / nodes_loaded is the
  // per-batch sharing factor. Preferable over FindBatch once n >= height()
  // * levels-worth of queries — see UseGroupedDescent (core/batch.h).
  void FindBatchGrouped(const Key* keys, size_t n, const Value** out,
                        SearchCounters* counters = nullptr) const {
    WithCounters(counters, [&](auto& o) { FindBatchGrouped(keys, n, out, o); });
  }
  template <typename Obs>
  void FindBatchGrouped(const Key* keys, size_t n, const Value** out,
                        Obs& obs) const {
    Descent::FindBatchGrouped(*this, keys, n, Locked{out}, obs);
  }

  // Grouped batched lower bound: out[i] = LowerBoundIter(keys[i]) with
  // the level-wise schedule of FindBatchGrouped.
  void LowerBoundBatchGrouped(const Key* keys, size_t n, ConstIterator* out,
                              SearchCounters* counters = nullptr) const {
    WithCounters(counters, [&](auto& o) {
      Descent::LowerBoundBatchGrouped(*this, keys, n, out, o);
    });
  }

  // Number of stored occurrences of `key`.
  size_t Count(Key key) const {
    size_t n = 0;
    ScanRange(key, key, [&n](Key, const Value&) { ++n; },
              /*hi_inclusive=*/true);
    return n;
  }

  // Applies fn(key, value) to every pair with lo <= key < hi (or <= hi if
  // hi_inclusive), in ascending key order.
  template <typename Fn>
  void ScanRange(Key lo, Key hi, Fn fn, bool hi_inclusive = false) const {
    ConstIterator it = LowerBoundIter(lo);
    for (; it.valid(); ++it) {
      const Key k = it.key();
      if (hi_inclusive ? (k > hi) : (k >= hi)) break;
      fn(k, it.value());
    }
  }

  // --- optimistic (lock-free) reads ---------------------------------------
  //
  // Requires EnableConcurrentReads() to have returned true and the
  // calling thread to hold an olc::EpochGuard pin. Every method is one
  // bounded attempt: kConflict means a concurrent writer invalidated a
  // node on the path and the caller decides whether to retry or fall
  // back to its lock. Only trees with trivially copyable Key/Value
  // qualify (values are copied out of the racy window by value).

  static constexpr bool kOptimisticCapable =
      std::is_trivially_copyable_v<Key> && std::is_trivially_copyable_v<Value>;

  // Bound on the FindOptimistic right-hop chain (racing splits can move
  // a key's position a few leaves right mid-read; more than this many
  // hops means the snapshot is hopelessly stale — restart instead).
  static constexpr int kMaxLeafHops = 8;

  // Arms per-node version words for optimistic readers and switches
  // both pools to epoch-deferred reclamation. Returns false (and leaves
  // the tree lock-read-only) in heap mode (SIMDTREE_DISABLE_ARENA=1,
  // which has no stable slab table) or for non-trivially-copyable
  // payloads. Must be called before the first concurrent reader;
  // idempotent.
  bool EnableConcurrentReads() {
    if constexpr (!kOptimisticCapable) {
      return false;
    } else {
      if (concurrent_) return true;
      auto& em = olc::EpochManager::Global();
      if (!leaf_pool_.EnableDeferredReclamation(&em)) return false;
      if (!inner_pool_.EnableDeferredReclamation(&em)) return false;
      concurrent_ = true;
      return true;
    }
  }
  bool concurrent_reads_enabled() const { return concurrent_; }

  // Height maintained by writers as an atomic hint, safe to read
  // without locks (height() walks the tree and is not). Used by the
  // wrappers' grouped-descent heuristic on the optimistic path.
  int height_hint() const {
    return height_hint_.load(std::memory_order_relaxed);
  }

  // One optimistic descent. On kOk, *out holds the value of some
  // occurrence of `key` (nullopt when absent).
  template <typename Obs = NullObserver>
  olc::ReadResult FindOptimistic(Key key, std::optional<Value>* out,
                                 Obs&& obs = {}) const {
    return Descent::template Find<Optimistic>(*this, key, out, obs);
  }

  // Optimistic pipelined / grouped batch lookups (batch_descent.h).
  // out[i] is written for every resolved query; conflicted query
  // indices are appended to *failed, their out[i] unspecified.
  template <typename Obs = NullObserver>
  void FindBatchOptimistic(const Key* keys, size_t n,
                           std::optional<Value>* out,
                           std::vector<uint32_t>* failed,
                           Obs&& obs = {}) const {
    Descent::FindBatch(*this, keys, n, Optimistic{out, failed},
                       kMaxBatchGroup, obs);
  }
  template <typename Obs = NullObserver>
  void FindBatchGroupedOptimistic(const Key* keys, size_t n,
                                  std::optional<Value>* out,
                                  std::vector<uint32_t>* failed,
                                  Obs&& obs = {}) const {
    Descent::FindBatchGrouped(*this, keys, n, Optimistic{out, failed}, obs);
  }

  // One optimistic attempt at a range scan, delivering pairs through
  // `sink(key, value)` leaf-by-leaf: each leaf's content is buffered,
  // the leaf version validated, and only then delivered — so the sink
  // never observes torn data, and each leaf's pairs form a consistent
  // snapshot (cross-leaf atomicity is NOT promised under concurrent
  // writers; the locked ScanRange keeps the shard-stable contract).
  //
  // Resume protocol: *resume_key / *resume_skip describe the delivery
  // floor — only keys > *resume_key are delivered, plus occurrences of
  // *resume_key beyond the first *resume_skip. Both are updated as
  // leaves commit, so after kConflict the caller retries (or falls back
  // to the locked scan) with the same pointers and no pair is delivered
  // twice. Initialize with *resume_key = lo, *resume_skip = 0. The
  // floor also enforces monotone (non-decreasing) delivery across the
  // mixed-snapshot leaf hops.
  template <typename Sink>
  olc::ReadResult ScanRangeOptimistic(Key hi, bool hi_inclusive,
                                      Key* resume_key, uint32_t* resume_skip,
                                      Sink sink) const {
    olc::TsanIgnoreReadsScope tsan;
    Key floor = *resume_key;
    uint32_t floor_quota = *resume_skip;
    uint32_t floor_seen = 0;
    // Descend to the leaf holding the lower bound of the floor key.
    const uint64_t vt = tree_version_.ReadBegin();
    if (!olc::VersionWord::IsStable(vt)) return olc::ReadResult::kConflict;
    const NodeBase* node = root_;
    if (!tree_version_.Validate(vt)) return olc::ReadResult::kConflict;
    if (node == nullptr) return olc::ReadResult::kOk;
    uint64_t v = node->version.ReadBegin();
    if (!olc::VersionWord::IsStable(v)) return olc::ReadResult::kConflict;
    while (!node->is_leaf) {
      const InnerNode* inner = static_cast<const InnerNode*>(node);
      const int64_t idx = inner->keys.LowerBound(floor);
      if (idx < 0 || idx > inner_ctx_->capacity) {
        return olc::ReadResult::kConflict;
      }
      const NodeRef ref = inner->children[static_cast<size_t>(idx)];
      if (!node->version.Validate(v)) return olc::ReadResult::kConflict;
      const NodeBase* child = DecodeRefOptimistic(ref);
      if (child == nullptr) return olc::ReadResult::kConflict;
      const uint64_t vc = child->version.ReadBegin();
      if (!olc::VersionWord::IsStable(vc)) return olc::ReadResult::kConflict;
      node = child;
      v = vc;
    }
    const LeafNode* leaf = static_cast<const LeafNode*>(node);
    std::vector<std::pair<Key, Value>> buffered;
    for (;;) {
      buffered.clear();
      const int64_t count = leaf->keys.count();
      if (count < 0 || count > leaf_ctx_->capacity) {
        return olc::ReadResult::kConflict;
      }
      int64_t start = leaf->keys.LowerBound(floor);
      if (start < 0) start = 0;
      if (start > count) start = count;
      bool past_hi = false;
      for (int64_t i = start; i < count; ++i) {
        const Key k = leaf->keys.At(i);
        if (hi_inclusive ? (k > hi) : (k >= hi)) {
          past_hi = true;
          break;
        }
        buffered.emplace_back(k, leaf->values[static_cast<size_t>(i)]);
      }
      const LeafNode* next = leaf->next;
      if (!leaf->version.Validate(v)) return olc::ReadResult::kConflict;
      // Committed: apply the floor filter and deliver.
      for (const auto& [k, val] : buffered) {
        if (k < floor) continue;
        if (k == floor) {
          ++floor_seen;
          if (floor_seen <= floor_quota) continue;
        } else {
          floor = k;
          floor_quota = 0;
          floor_seen = 1;
        }
        sink(k, val);
        *resume_key = floor;
        *resume_skip = floor_seen;
      }
      if (past_hi || next == nullptr) return olc::ReadResult::kOk;
      v = next->version.ReadBegin();
      if (!olc::VersionWord::IsStable(v)) return olc::ReadResult::kConflict;
      leaf = next;
    }
  }

  // --- iteration ----------------------------------------------------------

  class ConstIterator {
   public:
    ConstIterator() = default;
    bool valid() const { return leaf_ != nullptr; }
    Key key() const { return leaf_->keys.At(index_); }
    const Value& value() const {
      return leaf_->values[static_cast<size_t>(index_)];
    }
    ConstIterator& operator++() {
      if (++index_ >= leaf_->keys.count()) {
        leaf_ = leaf_->next;
        index_ = 0;
      }
      return *this;
    }
    bool operator==(const ConstIterator&) const = default;

   private:
    friend class GenericBPlusTree;
    template <typename Tree>
    friend class BatchDescent;
    ConstIterator(const typename GenericBPlusTree::LeafNode* leaf,
                  int64_t index)
        : leaf_(leaf), index_(index) {}
    const typename GenericBPlusTree::LeafNode* leaf_ = nullptr;
    int64_t index_ = 0;
  };

  ConstIterator begin() const {
    return (first_leaf_ != nullptr && first_leaf_->keys.count() > 0)
               ? ConstIterator(first_leaf_, 0)
               : ConstIterator();
  }

  // Iterator at the first pair with key >= lo.
  ConstIterator LowerBoundIter(Key lo) const {
    if (root_ == nullptr) return ConstIterator();
    const NodeBase* node = root_;
    while (!node->is_leaf) {
      const InnerNode* inner = static_cast<const InnerNode*>(node);
      const int64_t idx = inner->keys.LowerBound(lo);
      node = DecodeRef(inner->children[static_cast<size_t>(idx)]);
    }
    const LeafNode* leaf = static_cast<const LeafNode*>(node);
    int64_t pos = leaf->keys.LowerBound(lo);
    if (pos >= leaf->keys.count()) {  // answer starts in the next leaf
      leaf = leaf->next;
      pos = 0;
    }
    return leaf != nullptr ? ConstIterator(leaf, pos) : ConstIterator();
  }

  // --- introspection ------------------------------------------------------

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  int height() const {
    int h = 0;
    for (const NodeBase* n = root_; n != nullptr;
         n = n->is_leaf
                 ? nullptr
                 : DecodeRef(static_cast<const InnerNode*>(n)->children[0])) {
      ++h;
    }
    return h;
  }

  TreeStats Stats() const {
    TreeStats s;
    s.height = height();
    s.keys = size_;
    s.memory_bytes = sizeof(*this);
    double fill_sum = 0.0;
    ForEachNode([&](const NodeBase* node) {
      if (node->is_leaf) {
        const LeafNode* leaf = static_cast<const LeafNode*>(node);
        ++s.leaf_nodes;
        s.memory_bytes += leaf_pool_.block_bytes();
        fill_sum += static_cast<double>(leaf->keys.count()) /
                    static_cast<double>(leaf->keys.capacity());
      } else {
        ++s.inner_nodes;
        s.memory_bytes += inner_pool_.block_bytes();
      }
    });
    s.avg_leaf_fill =
        s.leaf_nodes > 0 ? fill_sum / static_cast<double>(s.leaf_nodes) : 0.0;
    s.arena = MemStats();
    return s;
  }

  size_t MemoryBytes() const { return Stats().memory_bytes; }

  // Merged occupancy of the leaf and inner pools; O(slabs).
  mem::ArenaStats MemStats() const {
    mem::ArenaStats s = leaf_pool_.Stats();
    s.Merge(inner_pool_.Stats());
    return s;
  }

  // Checks every structural invariant; returns false (and stops) on the
  // first violation. Used heavily by the randomized model tests.
  bool Validate() const {
    if (root_ == nullptr) return size_ == 0 && first_leaf_ == nullptr;
    int leaf_depth = -1;
    size_t counted = 0;
    const LeafNode* prev_leaf = nullptr;
    bool ok = ValidateRec(root_, /*depth=*/0, /*is_root=*/true, &leaf_depth,
                          &counted, &prev_leaf, nullptr, nullptr);
    ok = ok && counted == size_;
    ok = ok && (prev_leaf == nullptr || prev_leaf->next == nullptr);
    // The leaf chain must start at first_leaf_ and be globally sorted.
    const LeafNode* leftmost = LeftmostLeaf();
    ok = ok && leftmost == first_leaf_;
    size_t chained = 0;
    bool have_prev_key = false;
    Key prev_key{};
    const LeafNode* expected_prev = nullptr;
    for (const LeafNode* l = first_leaf_; l != nullptr; l = l->next) {
      ok = ok && l->prev == expected_prev;
      expected_prev = l;
      for (int64_t i = 0; i < l->keys.count(); ++i) {
        const Key k = l->keys.At(i);
        if (have_prev_key && prev_key > k) ok = false;
        prev_key = k;
        have_prev_key = true;
        ++chained;
      }
    }
    ok = ok && chained == size_;
    return ok;
  }

  // Writes an indented structural dump (separators and leaf keys) to
  // `out`; intended for debugging and small trees.
  void DumpStructure(FILE* out) const {
    if (root_ == nullptr) {
      std::fprintf(out, "(empty)\n");
      return;
    }
    DumpRec(root_, 0, out);
  }

  // --- bulk load ----------------------------------------------------------

  // Builds a tree from parallel sorted key/value arrays with the given
  // leaf/inner fill fraction (1.0 = completely filled nodes, the paper's
  // evaluation setting). Keys must be ascending (duplicates allowed).
  static GenericBPlusTree BulkLoad(Config config, const Key* keys,
                                   const Value* values, size_t n,
                                   double fill = 1.0) {
    GenericBPlusTree tree(std::move(config));
    tree.BulkLoadInto(keys, values, n, fill);
    return tree;
  }

 private:
  struct NodeBase {
    NodeBase(bool leaf, NodeRef self_ref) : self(self_ref), is_leaf(leaf) {}
    const NodeRef self;  // this node's compressed reference
    const bool is_leaf;
    // Optimistic-lock-coupling version word (core/olc.h). Placement-new
    // re-initializes it to stable on block reuse — safe because deferred
    // reclamation guarantees no reader still holds a ref by then.
    olc::VersionWord version;
  };

  // Fixed-capacity array of child references living inside the node
  // block (storage follows the key slots; capacity+1 entries). Explicit
  // size because the count+1 invariant is checked by Validate.
  class ChildArray {
   public:
    explicit ChildArray(NodeRef* storage) : data_(storage) {}
    size_t size() const { return static_cast<size_t>(size_); }
    const NodeRef* data() const { return data_; }
    NodeRef operator[](size_t i) const { return data_[i]; }
    NodeRef front() const { return data_[0]; }
    NodeRef back() const { return data_[size_ - 1]; }
    void push_back(NodeRef r) { data_[size_++] = r; }
    void pop_back() { --size_; }
    void insert(int64_t pos, NodeRef r) {
      std::memmove(data_ + pos + 1, data_ + pos,
                   static_cast<size_t>(size_ - pos) * sizeof(NodeRef));
      data_[pos] = r;
      ++size_;
    }
    void erase(int64_t pos) {
      std::memmove(data_ + pos, data_ + pos + 1,
                   static_cast<size_t>(size_ - pos - 1) * sizeof(NodeRef));
      --size_;
    }
    // this := src[from..); used by inner-node split.
    void AssignTail(const ChildArray& src, int64_t from) {
      size_ = static_cast<int32_t>(src.size_ - from);
      std::memcpy(data_, src.data_ + from,
                  static_cast<size_t>(size_) * sizeof(NodeRef));
    }
    void AppendAll(const ChildArray& src) {
      std::memcpy(data_ + size_, src.data_,
                  static_cast<size_t>(src.size_) * sizeof(NodeRef));
      size_ += src.size_;
    }
    void truncate(int64_t n) { size_ = static_cast<int32_t>(n); }

   private:
    NodeRef* data_;
    int32_t size_ = 0;
  };

  // Fixed-capacity value array living inside the leaf block (storage
  // follows the key slots). Elements in [0, size) are constructed.
  class ValueArray {
   public:
    explicit ValueArray(Value* storage) : data_(storage) {}
    size_t size() const { return static_cast<size_t>(size_); }
    Value& operator[](size_t i) { return data_[i]; }
    const Value& operator[](size_t i) const { return data_[i]; }
    Value& front() { return data_[0]; }
    Value& back() { return data_[size_ - 1]; }
    void push_back(Value v) { new (data_ + size_++) Value(std::move(v)); }
    void pop_back() { data_[--size_].~Value(); }
    void insert(int64_t pos, Value v) {
      if (pos == size_) {
        new (data_ + size_) Value(std::move(v));
      } else {
        new (data_ + size_) Value(std::move(data_[size_ - 1]));
        for (int64_t i = size_ - 1; i > pos; --i) {
          data_[i] = std::move(data_[i - 1]);
        }
        data_[pos] = std::move(v);
      }
      ++size_;
    }
    void erase(int64_t pos) {
      for (int64_t i = pos; i + 1 < size_; ++i) {
        data_[i] = std::move(data_[i + 1]);
      }
      data_[--size_].~Value();
    }
    // Moves src[from..) onto the end of this array and truncates src;
    // used by leaf split (from = mid) and merge (from = 0).
    void MoveTailFrom(ValueArray& src, int64_t from) {
      for (int64_t i = from; i < src.size_; ++i) {
        new (data_ + size_++) Value(std::move(src.data_[i]));
        src.data_[i].~Value();
      }
      src.size_ = from;
    }
    void AssignCopy(const Value* src, int64_t n) {
      assert(size_ == 0);
      for (int64_t i = 0; i < n; ++i) new (data_ + i) Value(src[i]);
      size_ = n;
    }
    void DestroyAll() {
      for (int64_t i = 0; i < size_; ++i) data_[i].~Value();
      size_ = 0;
    }

   private:
    Value* data_;
    int64_t size_ = 0;
  };

  struct InnerNode : NodeBase {
    InnerNode(const Context& ctx, NodeRef self_ref, Key* key_storage,
              NodeRef* child_storage)
        : NodeBase(false, self_ref),
          keys(ctx, key_storage),
          children(child_storage) {}
    KeyStore keys;
    ChildArray children;  // count() + 1 entries, logical order
  };

  struct LeafNode : NodeBase {
    LeafNode(const Context& ctx, NodeRef self_ref, Key* key_storage,
             Value* value_storage)
        : NodeBase(true, self_ref),
          keys(ctx, key_storage),
          values(value_storage) {}
    KeyStore keys;
    ValueArray values;  // parallel to logical key order
    LeafNode* next = nullptr;
    LeafNode* prev = nullptr;
  };

  friend class ConstIterator;
  template <typename Tree>
  friend class BatchDescent;
  using Descent = BatchDescent<GenericBPlusTree>;
  using Locked = typename Descent::Locked;
  using Optimistic = typename Descent::Optimistic;

  // --- writer-side version locking ---------------------------------------

  // Version-locks the (at most 4: parent, child, one sibling, one leaf
  // chain neighbor) nodes a structural mutation touches, unlocking them
  // all on scope exit. A no-op until EnableConcurrentReads(): the
  // single-threaded paths pay one branch per Add. Add is idempotent so
  // helper layers can re-Add a node their caller already locked.
  class NodeGuard {
   public:
    explicit NodeGuard(const GenericBPlusTree* tree) : on_(tree->concurrent_) {}
    ~NodeGuard() {
      for (int i = 0; i < n_; ++i) nodes_[i]->version.Unlock();
    }
    void Add(NodeBase* node) {
      if (!on_ || node == nullptr) return;
      for (int i = 0; i < n_; ++i) {
        if (nodes_[i] == node) return;
      }
      assert(n_ < kMaxNodes);
      node->version.Lock();
      nodes_[n_++] = node;
    }
    // Forgets a node about to be freed: it must stay odd (MarkDead in
    // FreeLeaf/FreeInner), so the destructor must not flip it back to
    // stable.
    void Dismiss(NodeBase* node) {
      for (int i = 0; i < n_; ++i) {
        if (nodes_[i] == node) {
          nodes_[i] = nodes_[--n_];
          return;
        }
      }
    }
    NodeGuard(const NodeGuard&) = delete;
    NodeGuard& operator=(const NodeGuard&) = delete;

   private:
    static constexpr int kMaxNodes = 4;
    NodeBase* nodes_[kMaxNodes] = {};
    int n_ = 0;
    bool on_;
  };

  // Version-locks the tree-level fields (root_, first_leaf_) for the
  // duration of a root swap / publication. Readers validate
  // tree_version_ around their root_ load.
  class TreeGuard {
   public:
    explicit TreeGuard(GenericBPlusTree* tree)
        : tree_(tree->concurrent_ ? tree : nullptr) {
      if (tree_ != nullptr) tree_->tree_version_.Lock();
    }
    ~TreeGuard() {
      if (tree_ != nullptr) tree_->tree_version_.Unlock();
    }
    TreeGuard(const TreeGuard&) = delete;
    TreeGuard& operator=(const TreeGuard&) = delete;

   private:
    GenericBPlusTree* tree_;
  };

  // --- node helpers -------------------------------------------------------

  // Key slots are 16-byte aligned inside the block so the SIMD key
  // stores keep the load alignment the heap allocator used to provide.
  static constexpr size_t kKeyStorageAlign =
      alignof(Key) > 16 ? alignof(Key) : 16;
  static_assert(alignof(Value) <= mem::kCacheLine);
  static_assert(alignof(Key) <= mem::kCacheLine);

  // Pools get at most 31 payload bits: the 32nd bit of a NodeRef is the
  // leaf/inner tag.
  static uint32_t RefPayloadBits(const mem::ArenaOptions& opts) {
    return std::min<uint32_t>(opts.max_slot_bits, 31);
  }

  // Slab index of a node's block, clamped into the trace schema's byte
  // (0xff stays the "unknown" sentinel).
  uint8_t TraceSlab(NodeRef ref) const {
    const size_t slab = (ref & kLeafBit) != 0
                            ? leaf_pool_.SlabOfSlot(ref & ~kLeafBit)
                            : inner_pool_.SlabOfSlot(ref);
    return slab >= 0xff ? 0xfe : static_cast<uint8_t>(slab);
  }

  NodeBase* DecodeRef(NodeRef ref) const {
    return (ref & kLeafBit) != 0
               ? static_cast<NodeBase*>(static_cast<LeafNode*>(
                     leaf_pool_.Decode(ref & ~kLeafBit)))
               : static_cast<NodeBase*>(
                     static_cast<InnerNode*>(inner_pool_.Decode(ref)));
  }

  // Bounds-checked decode for optimistic readers: `ref` may be garbage
  // read off a concurrently-mutated node, so out-of-range slots return
  // nullptr (= conflict) instead of faulting. Only valid while the
  // caller holds an epoch pin.
  const NodeBase* DecodeRefOptimistic(NodeRef ref) const {
    if ((ref & kLeafBit) != 0) {
      return static_cast<const LeafNode*>(
          leaf_pool_.DecodeOptimistic(ref & ~kLeafBit));
    }
    return static_cast<const InnerNode*>(inner_pool_.DecodeOptimistic(ref));
  }

  LeafNode* NewLeaf() {
    uint32_t slot = 0;
    void* block = leaf_pool_.Alloc(&slot);
    if (block == nullptr) throw std::bad_alloc();  // ref space exhausted
    char* base = static_cast<char*>(block);
    return new (block)
        LeafNode(*leaf_ctx_, slot | kLeafBit,
                 reinterpret_cast<Key*>(base + leaf_keys_off_),
                 reinterpret_cast<Value*>(base + leaf_values_off_));
  }
  InnerNode* NewInner() {
    uint32_t slot = 0;
    void* block = inner_pool_.Alloc(&slot);
    if (block == nullptr) throw std::bad_alloc();  // ref space exhausted
    char* base = static_cast<char*>(block);
    return new (block)
        InnerNode(*inner_ctx_, slot,
                  reinterpret_cast<Key*>(base + inner_keys_off_),
                  reinterpret_cast<NodeRef*>(base + inner_children_off_));
  }

  void FreeLeaf(LeafNode* leaf) {
    leaf->version.MarkDead();  // permanently odd: late readers conflict
    const NodeRef ref = leaf->self;
    leaf->values.DestroyAll();
    leaf->~LeafNode();
    leaf_pool_.Free(leaf, ref & ~kLeafBit);
  }
  void FreeInner(InnerNode* inner) {
    inner->version.MarkDead();
    const NodeRef ref = inner->self;
    inner->~InnerNode();
    inner_pool_.Free(inner, ref);
  }

  int64_t CapacityOf(const NodeBase* n) const {
    return n->is_leaf ? leaf_ctx_->capacity : inner_ctx_->capacity;
  }
  int64_t CountOf(const NodeBase* n) const {
    return n->is_leaf ? static_cast<const LeafNode*>(n)->keys.count()
                      : static_cast<const InnerNode*>(n)->keys.count();
  }
  bool IsFull(const NodeBase* n) const {
    return CountOf(n) == CapacityOf(n);
  }
  // Minimum keys of a non-root node. (cap-1)/2 rather than cap/2 because
  // splitting a full even-capacity branching node promotes the middle key
  // and leaves ceil/floor halves of cap-1 keys.
  int64_t MinKeys(const NodeBase* n) const { return (CapacityOf(n) - 1) / 2; }

  const LeafNode* LeftmostLeaf() const {
    const NodeBase* n = root_;
    if (n == nullptr) return nullptr;
    while (!n->is_leaf) {
      n = DecodeRef(static_cast<const InnerNode*>(n)->children[0]);
    }
    return static_cast<const LeafNode*>(n);
  }

  // --- insertion ----------------------------------------------------------

  // Splits the full child at `idx` of `parent` (which has spare room).
  // Version-locks the parent, the child, and — for a leaf split — the
  // old chain successor whose prev pointer is rewired; the freshly
  // allocated right node needs no lock (unreachable until the parent
  // publishes it on unlock). The guard is caller-scoped so Insert's
  // root grow can hold the old root locked across the root_ swap too.
  void SplitChild(InnerNode* parent, int64_t idx, NodeGuard& g) {
    NodeBase* child = DecodeRef(parent->children[static_cast<size_t>(idx)]);
    g.Add(parent);
    g.Add(child);
    Key separator;
    NodeBase* right_node = nullptr;
    if (child->is_leaf) {
      LeafNode* left = static_cast<LeafNode*>(child);
      g.Add(left->next);
      LeafNode* right = NewLeaf();
      const int64_t mid = left->keys.count() / 2;
      left->keys.MoveSuffixTo(right->keys, mid);
      right->values.MoveTailFrom(left->values, mid);
      right->next = left->next;
      if (right->next != nullptr) right->next->prev = right;
      right->prev = left;
      left->next = right;
      separator = right->keys.At(0);  // first key of the right subtree
      right_node = right;
    } else {
      InnerNode* left = static_cast<InnerNode*>(child);
      InnerNode* right = NewInner();
      const int64_t mid = left->keys.count() / 2;
      // Promote the middle separator; keys right of it move to the new
      // node together with their child references.
      separator = left->keys.At(mid);
      left->keys.MoveSuffixTo(right->keys, mid + 1);
      right->children.AssignTail(left->children, mid + 1);
      left->children.truncate(mid + 1);
      left->keys.RemoveAt(mid);
      right_node = right;
    }
    parent->keys.InsertAt(idx, separator);
    parent->children.insert(idx + 1, right_node->self);
  }

  void InsertNonFull(NodeBase* node, Key key, Value value) {
    while (!node->is_leaf) {
      InnerNode* inner = static_cast<InnerNode*>(node);
      int64_t idx = inner->keys.UpperBound(key);
      NodeBase* child = DecodeRef(inner->children[static_cast<size_t>(idx)]);
      if (IsFull(child)) {
        {
          NodeGuard g(this);
          SplitChild(inner, idx, g);
        }
        idx = inner->keys.UpperBound(key);
        child = DecodeRef(inner->children[static_cast<size_t>(idx)]);
      }
      node = child;
    }
    LeafNode* leaf = static_cast<LeafNode*>(node);
    const int64_t pos = leaf->keys.UpperBound(key);
    NodeGuard g(this);
    g.Add(leaf);
    leaf->keys.InsertAt(pos, key);
    leaf->values.insert(pos, std::move(value));
  }

  // --- erase --------------------------------------------------------------

  bool EraseRec(NodeBase* node, Key key) {
    if (node->is_leaf) {
      LeafNode* leaf = static_cast<LeafNode*>(node);
      const int64_t pos = leaf->keys.LowerBound(key);
      if (pos >= leaf->keys.count() || leaf->keys.At(pos) != key) {
        return false;  // failed probe: nothing mutated, no lock needed
      }
      NodeGuard g(this);
      g.Add(leaf);
      leaf->keys.RemoveAt(pos);
      leaf->values.erase(pos);
      return true;
    }
    InnerNode* inner = static_cast<InnerNode*>(node);
    // With duplicate keys, `key` may live in any child between the
    // lower-bound and upper-bound separators (a run of separators equal to
    // `key`); probe them left to right. Failed probes modify nothing.
    const int64_t lo = inner->keys.LowerBound(key);
    const int64_t hi = inner->keys.UpperBound(key);
    for (int64_t idx = lo; idx <= hi; ++idx) {
      NodeBase* child = DecodeRef(inner->children[static_cast<size_t>(idx)]);
      if (EraseRec(child, key)) {
        if (CountOf(child) < MinKeys(child)) RepairChild(inner, idx);
        return true;
      }
    }
    return false;
  }

  // Restores the minimum occupancy of children[idx] by borrowing from a
  // sibling or merging with one. The parent may underflow as a result;
  // its own parent repairs it on the unwind.
  void RepairChild(InnerNode* parent, int64_t idx) {
    NodeBase* child = DecodeRef(parent->children[static_cast<size_t>(idx)]);
    const int64_t n_children = static_cast<int64_t>(parent->children.size());
    NodeBase* left_sib =
        idx > 0 ? DecodeRef(parent->children[static_cast<size_t>(idx - 1)])
                : nullptr;
    NodeBase* right_sib =
        idx + 1 < n_children
            ? DecodeRef(parent->children[static_cast<size_t>(idx + 1)])
            : nullptr;
    NodeGuard g(this);
    g.Add(parent);
    g.Add(child);
    if (left_sib != nullptr && CountOf(left_sib) > MinKeys(left_sib)) {
      g.Add(left_sib);
      BorrowFromLeft(parent, idx, left_sib, child);
    } else if (right_sib != nullptr &&
               CountOf(right_sib) > MinKeys(right_sib)) {
      g.Add(right_sib);
      BorrowFromRight(parent, idx, child, right_sib);
    } else if (left_sib != nullptr) {
      g.Add(left_sib);
      MergeChildren(parent, idx - 1, g);
    } else {
      assert(right_sib != nullptr);
      g.Add(right_sib);
      MergeChildren(parent, idx, g);
    }
  }

  void BorrowFromLeft(InnerNode* parent, int64_t idx, NodeBase* left_base,
                      NodeBase* child_base) {
    if (child_base->is_leaf) {
      LeafNode* left = static_cast<LeafNode*>(left_base);
      LeafNode* child = static_cast<LeafNode*>(child_base);
      const int64_t last = left->keys.count() - 1;
      const Key moved = left->keys.At(last);
      child->keys.InsertAt(0, moved);
      child->values.insert(0, std::move(left->values.back()));
      left->values.pop_back();
      left->keys.RemoveAt(last);
      // Separator between left and child = first key of child's subtree.
      parent->keys.RemoveAt(idx - 1);
      parent->keys.InsertAt(idx - 1, moved);
    } else {
      InnerNode* left = static_cast<InnerNode*>(left_base);
      InnerNode* child = static_cast<InnerNode*>(child_base);
      const int64_t last = left->keys.count() - 1;
      // Rotate through the parent: parent separator drops into child,
      // left's last separator replaces it.
      const Key down = parent->keys.At(idx - 1);
      const Key up = left->keys.At(last);
      child->keys.InsertAt(0, down);
      child->children.insert(0, left->children.back());
      left->children.pop_back();
      left->keys.RemoveAt(last);
      parent->keys.RemoveAt(idx - 1);
      parent->keys.InsertAt(idx - 1, up);
    }
  }

  void BorrowFromRight(InnerNode* parent, int64_t idx, NodeBase* child_base,
                       NodeBase* right_base) {
    if (child_base->is_leaf) {
      LeafNode* child = static_cast<LeafNode*>(child_base);
      LeafNode* right = static_cast<LeafNode*>(right_base);
      const Key moved = right->keys.At(0);
      child->keys.InsertAt(child->keys.count(), moved);
      child->values.push_back(std::move(right->values.front()));
      right->values.erase(0);
      right->keys.RemoveAt(0);
      parent->keys.RemoveAt(idx);
      parent->keys.InsertAt(idx, right->keys.At(0));
    } else {
      InnerNode* child = static_cast<InnerNode*>(child_base);
      InnerNode* right = static_cast<InnerNode*>(right_base);
      const Key down = parent->keys.At(idx);
      const Key up = right->keys.At(0);
      child->keys.InsertAt(child->keys.count(), down);
      child->children.push_back(right->children.front());
      right->children.erase(0);
      right->keys.RemoveAt(0);
      parent->keys.RemoveAt(idx);
      parent->keys.InsertAt(idx, up);
    }
  }

  // Merges children[idx] and children[idx+1]; the right node is freed
  // back to its pool (deferred via epoch quarantine under concurrent
  // reads, straight to the free list otherwise). The caller's guard
  // already holds parent and both merge partners; the right node is
  // Dismissed before the free so MarkDead leaves it permanently odd
  // instead of the guard flipping it back to stable.
  void MergeChildren(InnerNode* parent, int64_t idx, NodeGuard& g) {
    NodeBase* left_base = DecodeRef(parent->children[static_cast<size_t>(idx)]);
    NodeBase* right_base =
        DecodeRef(parent->children[static_cast<size_t>(idx + 1)]);
    g.Add(left_base);
    g.Add(right_base);
    if (left_base->is_leaf) {
      LeafNode* left = static_cast<LeafNode*>(left_base);
      LeafNode* right = static_cast<LeafNode*>(right_base);
      g.Add(right->next);  // its prev pointer is rewired below
      left->keys.AppendFrom(right->keys);
      left->values.MoveTailFrom(right->values, 0);
      left->next = right->next;
      if (left->next != nullptr) left->next->prev = left;
      g.Dismiss(right);
      FreeLeaf(right);
    } else {
      InnerNode* left = static_cast<InnerNode*>(left_base);
      InnerNode* right = static_cast<InnerNode*>(right_base);
      // The parent separator drops down between the merged key runs.
      left->keys.InsertAt(left->keys.count(), parent->keys.At(idx));
      left->keys.AppendFrom(right->keys);
      left->children.AppendAll(right->children);
      g.Dismiss(right);
      FreeInner(right);
    }
    parent->keys.RemoveAt(idx);
    parent->children.erase(idx + 1);
  }

  void ShrinkRoot() {
    while (root_ != nullptr && !root_->is_leaf && CountOf(root_) == 0) {
      InnerNode* old_root = static_cast<InnerNode*>(root_);
      NodeBase* new_root = DecodeRef(old_root->children[0]);
      {
        NodeGuard g(this);
        g.Add(old_root);
        {
          TreeGuard tg(this);
          root_ = new_root;
        }
        g.Dismiss(old_root);
        FreeInner(old_root);
      }
      height_hint_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (root_ != nullptr && root_->is_leaf && CountOf(root_) == 0) {
      LeafNode* leaf = static_cast<LeafNode*>(root_);
      {
        NodeGuard g(this);
        g.Add(leaf);
        {
          TreeGuard tg(this);
          root_ = nullptr;
          first_leaf_ = nullptr;
        }
        g.Dismiss(leaf);
        FreeLeaf(leaf);
      }
      height_hint_.store(0, std::memory_order_relaxed);
    }
  }

  // --- validation ---------------------------------------------------------

  bool ValidateRec(const NodeBase* node, int depth, bool is_root,
                   int* leaf_depth, size_t* counted,
                   const LeafNode** prev_leaf, const Key* lo,
                   const Key* hi) const {
    const int64_t count = CountOf(node);
    if (!is_root && count < MinKeys(node)) return false;
    if (count > CapacityOf(node)) return false;
    if (is_root && !node->is_leaf && count < 1) return false;
    // Keys ascending and within the inherited closed bounds.
    for (int64_t i = 0; i < count; ++i) {
      const Key k = node->is_leaf
                        ? static_cast<const LeafNode*>(node)->keys.At(i)
                        : static_cast<const InnerNode*>(node)->keys.At(i);
      if (i > 0) {
        const Key prev =
            node->is_leaf
                ? static_cast<const LeafNode*>(node)->keys.At(i - 1)
                : static_cast<const InnerNode*>(node)->keys.At(i - 1);
        if (prev > k) return false;
      }
      if (lo != nullptr && k < *lo) return false;
      if (hi != nullptr && k > *hi) return false;
    }
    if (node->is_leaf) {
      const LeafNode* leaf = static_cast<const LeafNode*>(node);
      if (*leaf_depth == -1) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      if (leaf->values.size() != static_cast<size_t>(count)) return false;
      if (leaf->prev != *prev_leaf) return false;
      if (*prev_leaf != nullptr && (*prev_leaf)->next != leaf) return false;
      *prev_leaf = leaf;
      *counted += static_cast<size_t>(count);
      return true;
    }
    const InnerNode* inner = static_cast<const InnerNode*>(node);
    if (inner->children.size() != static_cast<size_t>(count) + 1) {
      return false;
    }
    for (int64_t i = 0; i <= count; ++i) {
      Key child_lo{};
      Key child_hi{};
      const Key* lo_ptr = lo;
      const Key* hi_ptr = hi;
      if (i > 0) {
        child_lo = inner->keys.At(i - 1);
        lo_ptr = &child_lo;
      }
      if (i < count) {
        child_hi = inner->keys.At(i);
        hi_ptr = &child_hi;
      }
      if (!ValidateRec(DecodeRef(inner->children[static_cast<size_t>(i)]),
                       depth + 1, false, leaf_depth, counted, prev_leaf,
                       lo_ptr, hi_ptr)) {
        return false;
      }
    }
    return true;
  }

  void DumpRec(const NodeBase* node, int depth, FILE* out) const {
    for (int i = 0; i < depth; ++i) std::fprintf(out, "  ");
    if (node->is_leaf) {
      const LeafNode* leaf = static_cast<const LeafNode*>(node);
      std::fprintf(out, "leaf(%lld):", static_cast<long long>(leaf->keys.count()));
      for (int64_t i = 0; i < leaf->keys.count(); ++i) {
        std::fprintf(out, " %lld", static_cast<long long>(leaf->keys.At(i)));
      }
      std::fprintf(out, "\n");
      return;
    }
    const InnerNode* inner = static_cast<const InnerNode*>(node);
    std::fprintf(out, "inner(%lld):", static_cast<long long>(inner->keys.count()));
    for (int64_t i = 0; i < inner->keys.count(); ++i) {
      std::fprintf(out, " %lld", static_cast<long long>(inner->keys.At(i)));
    }
    std::fprintf(out, "\n");
    for (size_t i = 0; i < inner->children.size(); ++i) {
      DumpRec(DecodeRef(inner->children[i]), depth + 1, out);
    }
  }

  template <typename Fn>
  void ForEachNode(Fn fn) const {
    if (root_ == nullptr) return;
    std::vector<const NodeBase*> stack = {root_};
    while (!stack.empty()) {
      const NodeBase* node = stack.back();
      stack.pop_back();
      fn(node);
      if (!node->is_leaf) {
        const InnerNode* inner = static_cast<const InnerNode*>(node);
        for (size_t i = 0; i < inner->children.size(); ++i) {
          stack.push_back(DecodeRef(inner->children[i]));
        }
      }
    }
  }

  // --- bulk load ----------------------------------------------------------

  // Size of the next chunk when packing `rest` items into nodes that
  // prefer `pref` items and must hold between `min_items` and `max_items`
  // (root-level exceptions handled by the callers). Guarantees the
  // remainder never ends up below `min_items`.
  static int64_t NextChunk(int64_t rest, int64_t pref, int64_t min_items,
                           int64_t max_items) {
    int64_t take = std::min(pref, rest);
    const int64_t remaining = rest - take;
    if (remaining > 0 && remaining < min_items) {
      // Borrow from this chunk; if everything still fits in one node,
      // take it all (slightly overfull vs. `pref`, never vs. capacity).
      take = rest <= max_items ? rest : rest - min_items;
    }
    return take;
  }

  void BulkLoadInto(const Key* keys, const Value* values, size_t n,
                    double fill) {
    assert(root_ == nullptr);
    if (n == 0) return;

    const int64_t leaf_cap = leaf_ctx_->capacity;
    const int64_t min_leaf = (leaf_cap - 1) / 2;
    int64_t per_leaf =
        static_cast<int64_t>(static_cast<double>(leaf_cap) * fill + 0.5);
    per_leaf = std::clamp<int64_t>(per_leaf, std::max<int64_t>(min_leaf, 1),
                                   leaf_cap);

    // Build the leaf level.
    struct Entry {
      NodeBase* node;
      Key min_key;  // smallest key in the subtree (future separator)
    };
    std::vector<Entry> level;
    LeafNode* prev = nullptr;
    size_t i = 0;
    while (i < n) {
      const int64_t take = NextChunk(static_cast<int64_t>(n - i), per_leaf,
                                     min_leaf, leaf_cap);
      LeafNode* leaf = NewLeaf();
      leaf->keys.AssignSorted(keys + i, take);
      leaf->values.AssignCopy(values + i, take);
      leaf->prev = prev;
      if (prev != nullptr) prev->next = leaf;
      if (first_leaf_ == nullptr) first_leaf_ = leaf;
      level.push_back({leaf, keys[i]});
      prev = leaf;
      i += static_cast<size_t>(take);
    }
    size_ = n;

    // Build inner levels bottom-up until a single root remains. Counts
    // below are child-pointer counts (keys + 1).
    const int64_t max_children = inner_ctx_->capacity + 1;
    const int64_t min_children = (inner_ctx_->capacity - 1) / 2 + 1;
    int64_t per_inner = static_cast<int64_t>(
        static_cast<double>(max_children) * fill + 0.5);
    per_inner = std::clamp<int64_t>(per_inner, min_children, max_children);
    int levels = 1;
    while (level.size() > 1) {
      std::vector<Entry> next_level;
      size_t j = 0;
      while (j < level.size()) {
        int64_t take = NextChunk(static_cast<int64_t>(level.size() - j),
                                 per_inner, min_children, max_children);
        if (take < 2 && level.size() - j > 1) take = 2;
        InnerNode* node = NewInner();
        for (int64_t c = 0; c < take; ++c) {
          const Entry& e = level[j + static_cast<size_t>(c)];
          node->children.push_back(e.node->self);
          if (c > 0) node->keys.InsertAt(node->keys.count(), e.min_key);
        }
        next_level.push_back({node, level[j].min_key});
        j += static_cast<size_t>(take);
      }
      level = std::move(next_level);
      ++levels;
    }
    root_ = level[0].node;
    height_hint_.store(levels, std::memory_order_relaxed);
  }

  std::unique_ptr<Context> leaf_ctx_;
  std::unique_ptr<Context> inner_ctx_;
  // Block layout offsets: [node header | pad | keys | pad | payload].
  size_t leaf_keys_off_ = 0;
  size_t leaf_values_off_ = 0;
  size_t inner_keys_off_ = 0;
  size_t inner_children_off_ = 0;
  mem::NodePool leaf_pool_;
  mem::NodePool inner_pool_;
  NodeBase* root_ = nullptr;
  LeafNode* first_leaf_ = nullptr;
  size_t size_ = 0;
  // Optimistic-read state: the tree-level version word guards root_ /
  // first_leaf_ swaps, height_hint_ lets lock-free callers size batch
  // scratch, and concurrent_ (set once by EnableConcurrentReads before
  // any concurrent reader exists) turns the writer-side guards on.
  olc::VersionWord tree_version_;
  std::atomic<int32_t> height_hint_{0};
  bool concurrent_ = false;
};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_GENERIC_BTREE_H_
