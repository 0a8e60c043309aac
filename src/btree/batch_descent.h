// The B+-Tree lookup engines, shared by the plain (binary-search) and Seg
// (SIMD k-ary) key stores: one single-key descent, one group software-
// pipelined batch descent and one grouped (level-wise) batch descent.
//
// A single root-to-leaf descent serializes one node miss per level: the
// child pointer is not known until the current node's separators have
// been searched, so an out-of-cache tree spends almost its whole lookup
// stalled (paper Section 5.4: "the processor is mainly waiting for data
// from main memory"). Level-wise batch traversal (after Tzschoppe et al.
// and the BS-tree's data-parallel multi-query processing) converts that
// latency into throughput: G independent queries descend in lockstep,
// one level at a time. Every pipelined level runs two passes over the
// group: a prefetch pass that fetches each query's whole node — every
// materialized key line and all count + 1 child-ref lines, up to 47 for
// a 242-key uint64_t node — then a search pass that runs the key store's
// UpperBound, decodes the 32-bit child reference through the node pool's
// slab table, and immediately prefetches the child's header. The G
// header misses of the next level overlap in the line fill buffers, and
// so do the lines inside each node, which the k-ary steps would
// otherwise miss one after another: a small group (a sharded sub-batch
// often holds one or two keys) has little else to overlap. The leaf
// level prefetches each leaf's whole key array. The grouped schedule
// sorts the batch once and visits each node once per batch, splitting
// the sorted run it routes across the node's children; it fetches each
// frontier node whole before searching it (one lookahead distance ahead
// under Locked, as soon as the child is pushed under Optimistic).
//
// Each engine is written once and templated on a validation policy
// (Locked or Optimistic, below) and an observer (core/descent_observer.h)
// whose hooks compile away in the NullObserver instantiation. Results are
// exactly those of per-key Find / LowerBoundIter. BatchDescent is a friend
// of GenericBPlusTree: the engines need the node types, which stay private
// to the tree.

#ifndef SIMDTREE_BTREE_BATCH_DESCENT_H_
#define SIMDTREE_BTREE_BATCH_DESCENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/batch_sort.h"
#include "core/descent_observer.h"
#include "core/olc.h"
#include "mem/arena.h"
#include "obs/trace.h"

namespace simdtree::btree {

template <typename Tree>
class BatchDescent {
  using NodeBase = typename Tree::NodeBase;
  using InnerNode = typename Tree::InnerNode;
  using LeafNode = typename Tree::LeafNode;
  using NodeRef = typename Tree::NodeRef;

 public:
  using Key = typename Tree::KeyType;
  using Value = typename Tree::ValueType;
  using Iterator = typename Tree::ConstIterator;

  // --- validation policies -------------------------------------------------
  //
  // A policy object carries the batch's outputs: out[i] for every query it
  // resolves, Fail(i) for every query it cannot (Optimistic only).

  // The caller excludes writers (the shard lock, or an unshared tree), so
  // nothing read can change: no version reads, children decode through
  // DecodeRef, a prev-leaf hop or a right-edge miss is final, and out[i]
  // points at the stored value (valid until the next mutation).
  struct Locked {
    using Out = const Value*;
    struct ReadScope {};
    static constexpr bool kCanFail = false;

    static bool Root(const Tree& tree, const NodeBase** root) {
      *root = tree.root_;
      return true;
    }
    static bool Begin(const NodeBase*, uint64_t* ver) {
      *ver = 0;
      return true;
    }
    static bool Valid(const NodeBase*, uint64_t) { return true; }
    static bool Sane(int64_t, int64_t, int64_t) { return true; }
    static const NodeBase* Child(const Tree& tree, NodeRef ref) {
      return tree.DecodeRef(ref);
    }
    static Out Hit(const Value& v) { return &v; }
    static Out Miss() { return nullptr; }
    void Fail(uint32_t) {}

    Out* out;
  };

  // Lock-free reads over optimistic lock coupling: a node's version is
  // read before it is used (Begin) and validated before anything read off
  // it is trusted (Valid); child references decode bounds-checked
  // (DecodeRefOptimistic); counts read off a node being rewritten may be
  // torn, so every position is bounds-checked (Sane) before it indexes.
  // Values are copied out before the final validation. A query invalidated
  // by a concurrent writer is appended to *failed (by index) with out[i]
  // unspecified, for the caller to retry. Caller holds an olc::EpochGuard.
  struct Optimistic {
    using Out = std::optional<Value>;
    using ReadScope = olc::TsanIgnoreReadsScope;
    static constexpr bool kCanFail = true;

    static bool Root(const Tree& tree, const NodeBase** root) {
      const uint64_t vt = tree.tree_version_.ReadBegin();
      if (!olc::VersionWord::IsStable(vt)) return false;
      *root = tree.root_;
      return tree.tree_version_.Validate(vt);
    }
    static bool Begin(const NodeBase* node, uint64_t* ver) {
      *ver = node->version.ReadBegin();
      return olc::VersionWord::IsStable(*ver);
    }
    static bool Valid(const NodeBase* node, uint64_t ver) {
      return node->version.Validate(ver);
    }
    static bool Sane(int64_t v, int64_t lo, int64_t hi) {
      return v >= lo && v <= hi;
    }
    static const NodeBase* Child(const Tree& tree, NodeRef ref) {
      return tree.DecodeRefOptimistic(ref);
    }
    static Out Hit(const Value& v) { return v; }
    static Out Miss() { return std::nullopt; }
    void Fail(uint32_t i) { failed->push_back(i); }

    Out* out;
    std::vector<uint32_t>* failed;
  };

  // --- entry points ----------------------------------------------------------

  // One root-to-leaf descent of `key` into *out. Locked always answers;
  // Optimistic returns kConflict when a writer invalidated the path, with
  // *out untouched.
  template <typename V, typename Obs>
  static olc::ReadResult Find(const Tree& tree, Key key, typename V::Out* out,
                              Obs& obs) {
    [[maybe_unused]] typename V::ReadScope scope;
    obs.Begin();
    const NodeBase* node = nullptr;
    if (!V::Root(tree, &node)) return olc::ReadResult::kConflict;
    if (node == nullptr) {
      *out = V::Miss();
      return olc::ReadResult::kOk;
    }
    uint64_t ver = 0;
    if (!V::Begin(node, &ver)) return olc::ReadResult::kConflict;
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    while (!node->is_leaf) {
      obs.BeginLevel();
      const InnerNode* inner = static_cast<const InnerNode*>(node);
      obs.Visit(1);
      const int64_t idx = inner->keys.UpperBound(key, Cmps(obs));
      if (!V::Sane(idx, 0, inner_cap)) return olc::ReadResult::kConflict;
      const NodeRef ref = inner->children[static_cast<size_t>(idx)];
      // Validate the parent BEFORE decoding: a validated ref is a real
      // child ref from a consistent snapshot, and the epoch pin keeps
      // whatever it points at mapped even if it is freed underneath us.
      if (!V::Valid(node, ver)) return olc::ReadResult::kConflict;
      obs.EndLevel([&] { return Describe(tree, inner); });
      node = V::Child(tree, ref);
      if (V::kCanFail && (node == nullptr || !V::Begin(node, &ver))) {
        return olc::ReadResult::kConflict;
      }
    }
    obs.BeginLevel();
    const LeafNode* leaf = static_cast<const LeafNode*>(node);
    obs.Visit(1);
    const bool ok = ResolveLeaf<V>(tree, leaf, ver, key, out, obs);
    obs.EndLevel([&] { return Describe(tree, leaf); });
    return ok ? olc::ReadResult::kOk : olc::ReadResult::kConflict;
  }

  // Pipelined batch: out[i] (through the policy) answers keys[i]; groups
  // of `group` queries descend in lockstep.
  template <typename V, typename Obs>
  static void FindBatch(const Tree& tree, const Key* keys, size_t n, V v,
                        int group, Obs& obs) {
    [[maybe_unused]] typename V::ReadScope scope;
    ForEachGroup(n, group, [&](size_t off, int g) {
      const Key* q = keys + off;
      typename V::Out* out = v.out + off;
      const NodeBase* cur[kMaxBatchGroup];
      uint64_t ver[kMaxBatchGroup];
      if (!DescendGroup<false>(tree, q, g, static_cast<uint32_t>(off), &v,
                               cur, ver, obs)) {
        for (int i = 0; i < g; ++i) out[i] = V::Miss();
        return;
      }
      // Leaf resolution, one query at a time (the leaf blocks were
      // prefetched by the last descent level).
      obs.BeginLevel();
      uint32_t loaded = 0;
      const LeafNode* any = nullptr;
      for (int i = 0; i < g; ++i) {
        if (V::kCanFail && cur[i] == nullptr) continue;
        any = static_cast<const LeafNode*>(cur[i]);
        ++loaded;
        obs.Visit(1);
        if (!ResolveLeaf<V>(tree, any, ver[i], q[i], &out[i], obs)) {
          v.Fail(static_cast<uint32_t>(off + static_cast<size_t>(i)));
        }
      }
      obs.EndLevel([&] { return DescribeLevel(loaded, any); });
    });
  }

  // out[i] = iterator at the first pair with key >= keys[i] (invalid when
  // none) — the batched form of Tree::LowerBoundIter, locked. One node per
  // level per query is visited, plus one when a query steps into the next
  // leaf; the logical cost is independent of `group`.
  template <typename Obs>
  static void LowerBoundBatch(const Tree& tree, const Key* keys, size_t n,
                              Iterator* out, int group, Obs& obs) {
    Locked v{nullptr};
    ForEachGroup(n, group, [&](size_t off, int g) {
      const Key* q = keys + off;
      Iterator* its = out + off;
      const NodeBase* cur[kMaxBatchGroup];
      uint64_t ver[kMaxBatchGroup];
      if (!DescendGroup<true>(tree, q, g, static_cast<uint32_t>(off), &v, cur,
                              ver, obs)) {
        for (int i = 0; i < g; ++i) its[i] = Iterator();
        return;
      }
      for (int i = 0; i < g; ++i) {
        obs.Visit(1);
        its[i] = LowerBoundInLeaf(static_cast<const LeafNode*>(cur[i]), q[i],
                                  obs);
      }
    });
  }

  // Grouped batch: same answers as FindBatch. The batch is sorted once
  // (core/batch_sort.h) and the tree walked level by level with a frontier
  // of (node, sorted query run) pairs, so each node is loaded and searched
  // once per batch. Under Optimistic each run shares one version check per
  // node; a query whose answer may end the previous leaf, or whose
  // right-edge miss the sibling probe cannot prove (RightEdgeMissProven),
  // fails rather than hopping leaves mid-run, for the per-key retry.
  template <typename V, typename Obs>
  static void FindBatchGrouped(const Tree& tree, const Key* keys, size_t n,
                               V v, Obs& obs) {
    if (n == 0) return;
    [[maybe_unused]] typename V::ReadScope scope;
    SortedBatch<Key> sorted;
    SortBatchWithPermutation(keys, n, &sorted);
    const Key* skeys = sorted.keys.data();
    const uint32_t* perm = sorted.perm.data();
    const auto fail_range = [&](uint32_t b, uint32_t e) {
      for (uint32_t j = b; j < e; ++j) v.Fail(perm[j]);
    };
    std::vector<Run> frontier;
    if (!DescendRuns<false, V>(tree, skeys, static_cast<uint32_t>(n),
                               fail_range, &frontier, obs)) {
      for (size_t i = 0; i < n; ++i) v.out[i] = V::Miss();
      return;
    }
    // Leaf level: one pass per run. Duplicate queries (adjacent after the
    // sort) reuse the previous answer.
    obs.BeginLevel();
    const int64_t leaf_cap = tree.leaf_ctx_->capacity;
    std::vector<uint32_t> deferred;  // Optimistic: runs' unproven queries
    for (size_t r = 0; r < frontier.size(); ++r) {
      if constexpr (!V::kCanFail) PrefetchAhead(tree, frontier, r);
      const Run& run = frontier[r];
      const LeafNode* leaf0 = static_cast<const LeafNode*>(run.node);
      obs.Visit(run.end - run.begin);
      obs.Load();
      const int64_t count = leaf0->keys.count();
      if (!V::Sane(count, 0, leaf_cap)) {
        fail_range(run.begin, run.end);
        continue;
      }
      deferred.clear();
      bool torn = false;
      bool prev_loaded = false;
      bool last_stepped = false;
      bool last_deferred = false;
      typename V::Out last{};
      for (uint32_t j = run.begin; j < run.end; ++j) {
        const Key q = skeys[j];
        if (j == run.begin || q != skeys[j - 1]) {
          last_stepped = false;
          last_deferred = false;
          const LeafNode* leaf = leaf0;
          int64_t pos = leaf->keys.UpperBound(q, Cmps(obs));
          if (!V::Sane(pos, 0, leaf_cap)) {
            torn = true;
            break;
          }
          if (pos == 0 && leaf->prev != nullptr) {
            // The occurrence, if any, ends the previous leaf: a locked run
            // hops there (loading it once per run), an optimistic one
            // leaves the query to the per-key retry.
            if constexpr (V::kCanFail) {
              last_deferred = true;
            } else {
              leaf = leaf->prev;
              last_stepped = true;
              if (!prev_loaded) obs.Load();
              prev_loaded = true;
              pos = leaf->keys.count();
            }
          }
          if (last_deferred || pos == 0) {
            last = V::Miss();
          } else if (leaf->keys.At(pos - 1) == q) {
            last = V::Hit(leaf->values[static_cast<size_t>(pos - 1)]);
          } else {
            last = V::Miss();
            last_deferred = V::kCanFail && pos == count &&
                            leaf->next != nullptr &&
                            !RightEdgeMissProven(leaf->next, q, leaf_cap);
          }
        }
        if (last_stepped) obs.Visit(1);
        if (last_deferred) {
          deferred.push_back(j);
        } else {
          v.out[perm[j]] = last;
        }
      }
      if (torn || !V::Valid(leaf0, run.ver)) {
        fail_range(run.begin, run.end);
        continue;
      }
      for (const uint32_t j : deferred) v.Fail(perm[j]);
    }
    obs.EndLevel([&] {
      const NodeBase* any = frontier.empty() ? nullptr : frontier[0].node;
      return DescribeLevel(static_cast<uint32_t>(frontier.size()),
                           static_cast<const LeafNode*>(any));
    });
  }

  // Grouped lower-bound iterators, locked: the batched form of
  // LowerBoundIter with the level-wise schedule. The descent routes query
  // q to the child holding the first key >= q (LowerBound ranks), so the
  // run boundary at separator s is the first query > s.
  template <typename Obs>
  static void LowerBoundBatchGrouped(const Tree& tree, const Key* keys,
                                     size_t n, Iterator* out, Obs& obs) {
    if (n == 0) return;
    SortedBatch<Key> sorted;
    SortBatchWithPermutation(keys, n, &sorted);
    const Key* skeys = sorted.keys.data();
    const uint32_t* perm = sorted.perm.data();
    std::vector<Run> frontier;
    if (!DescendRuns<true, Locked>(tree, skeys, static_cast<uint32_t>(n),
                                   [](uint32_t, uint32_t) {}, &frontier,
                                   obs)) {
      for (size_t i = 0; i < n; ++i) out[i] = Iterator();
      return;
    }
    for (size_t r = 0; r < frontier.size(); ++r) {
      PrefetchAhead(tree, frontier, r);
      const Run& run = frontier[r];
      const LeafNode* leaf = static_cast<const LeafNode*>(run.node);
      obs.Visit(run.end - run.begin);
      obs.Load();
      bool next_loaded = false;
      for (uint32_t j = run.begin; j < run.end; ++j) {
        const Key q = skeys[j];
        if (j > run.begin && q == skeys[j - 1]) {
          out[perm[j]] = out[perm[j - 1]];
        } else {
          NullObserver none;
          out[perm[j]] = LowerBoundInLeaf(leaf, q, none);
        }
        // A query answered from the next leaf also visits it.
        if (out[perm[j]].valid() && out[perm[j]].leaf_ != leaf) {
          obs.Visit(1);
          if (!next_loaded) obs.Load();
          next_loaded = true;
        }
      }
    }
  }

 private:
  static void Prefetch(const void* p) { PrefetchRead(p); }

  // One grouped-frontier entry: sorted queries [begin, end) all route to
  // `node` on the current level, whose version (Optimistic) was read at
  // first touch. Runs on one level are disjoint and cover the batch, and
  // distinct runs hold distinct nodes (children of disjoint subtrees), so
  // one run == one physical node load.
  struct Run {
    const NodeBase* node;
    uint64_t ver;
    uint32_t begin;
    uint32_t end;
  };

  // Backstop against following garbage references in a cycle: no real
  // descent is deeper than this (a height-40 tree would be astronomically
  // large), so exceeding it means the snapshot is hopeless — fail the
  // queries and let the caller retry.
  static constexpr int kMaxOptimisticDepth = 40;

  // The comparison sink of the in-node searches: only an observer that
  // records spans counts them (the trace's per-level comparison counts).
  template <typename Obs>
  static auto Cmps(Obs& obs) {
    return CmpsIf<Obs::kSpans>(obs);
  }

  static obs::TraceBackend BackendOf(uint8_t layout) {
    return layout == obs::kTraceLayoutPlain ? obs::TraceBackend::kBPlusTree
                                            : obs::TraceBackend::kSegTree;
  }

  // Span of the searched `node` (single key), or of a batch level that
  // loaded `loaded` nodes, `node` among them.
  template <typename Node>
  static LevelDesc Describe(const Tree& tree, const Node* node) {
    const uint8_t layout = node->keys.TraceLayoutId();
    return LevelDesc{node->self, layout, tree.TraceSlab(node->self),
                     BackendOf(layout)};
  }
  template <typename Node>
  static LevelDesc DescribeLevel(uint32_t loaded, const Node* node) {
    const uint8_t layout =
        node != nullptr ? node->keys.TraceLayoutId() : obs::kTraceLayoutPlain;
    return LevelDesc{loaded, layout, obs::kTraceSlabUnknown,
                     BackendOf(layout)};
  }

  template <typename Fn>
  static void ForEachGroup(size_t n, int group, Fn fn) {
    group = ClampBatchGroup(group);
    for (size_t off = 0; off < n; off += static_cast<size_t>(group)) {
      fn(off, static_cast<int>(
                  std::min<size_t>(static_cast<size_t>(group), n - off)));
    }
  }

  // Two-stage lookahead over a frontier: the node struct at distance 2W,
  // the rest of the node (behind the struct's internal pointers — readable
  // once the struct line is hot) at distance W, with the same whole-node
  // coverage as the pipelined passes. Locked runs only: an Optimistic
  // run's node was loaded by its version read, and fetched whole, when it
  // was pushed (DescendRuns); on 16M keys under a concurrent writer this
  // lookahead gained the optimistic engine no read throughput while
  // making the writer's p99 latency swing more from run to run
  // (EXPERIMENTS.md).
  static void PrefetchAhead(const Tree& tree, const std::vector<Run>& runs,
                            size_t r) {
    if (r + 2 * kGroupedRunLookahead < runs.size()) {
      Prefetch(runs[r + 2 * kGroupedRunLookahead].node);
    }
    if (r + kGroupedRunLookahead < runs.size()) {
      PrefetchNode(tree, runs[r + kGroupedRunLookahead].node);
    }
  }

  // Prefetches every line a search of an inner node can read: its
  // materialized key lines and its count + 1 child refs (at most 31 and
  // 16 lines for a 242-key uint64_t node), so the k-ary steps of the
  // in-node search and the child-ref load overlap instead of missing one
  // after another. Reads the node's header; the count may be torn under
  // Optimistic and is clamped to the capacity, so the prefetch stays
  // inside the node's block.
  static void PrefetchInner(const Tree& tree, const InnerNode* inner) {
    inner->keys.PrefetchKeys();
    const int64_t count =
        std::clamp<int64_t>(inner->keys.count(), 0, tree.inner_ctx_->capacity);
    mem::PrefetchLines(inner->children.data(),
                       static_cast<size_t>(count + 1) * sizeof(NodeRef));
  }

  // Whole-node prefetch of either kind: a leaf's search reads only its
  // key array.
  static void PrefetchNode(const Tree& tree, const NodeBase* node) {
    if (node->is_leaf) {
      static_cast<const LeafNode*>(node)->keys.PrefetchKeys();
    } else {
      PrefetchInner(tree, static_cast<const InnerNode*>(node));
    }
  }

  // A miss at the right edge of a leaf (upper-bound == count, live next
  // sibling) is only provable by confirming the key precedes the next
  // leaf's first key: a split racing the descent may have moved the
  // key's range into that sibling. Probes the sibling under its own
  // seqlock; true == miss proven, false == the caller must defer to the
  // per-key retry (which right-hops the chain). The caller still validates
  // the current leaf afterwards, which covers the next-pointer read itself.
  static bool RightEdgeMissProven(const LeafNode* next, Key q,
                                  int64_t leaf_cap) {
    const uint64_t vn = next->version.ReadBegin();
    if (!olc::VersionWord::IsStable(vn)) return false;
    const int64_t nc = next->keys.count();
    if (nc <= 0 || nc > leaf_cap) return false;
    const Key first = next->keys.At(0);
    if (!next->version.Validate(vn)) return false;
    return q < first;
  }

  // Leaf step of Find, single-key and pipelined: the occurrence, if any,
  // sits just before the key's upper bound — possibly at the end of the
  // previous leaf. Locked answers there. Optimistic cannot take "greater
  // than everything here" as a miss: a split committing between the
  // parent's validation and this leaf's Begin moves the upper part of the
  // range into a new right sibling, so it chases `next` (at most
  // Tree::kMaxLeafHops leaves) until a leaf brackets the key. Returns
  // false on a conflict, with *out untouched.
  template <typename V, typename Obs>
  static bool ResolveLeaf(const Tree& tree, const LeafNode* leaf, uint64_t ver,
                          Key key, typename V::Out* out, Obs& obs) {
    const int64_t cap = tree.leaf_ctx_->capacity;
    int64_t pos = leaf->keys.UpperBound(key, Cmps(obs));
    if (!V::Sane(pos, 0, cap)) return false;
    if (pos == 0) {
      const LeafNode* prev = leaf->prev;
      if (!V::Valid(leaf, ver)) return false;
      if (prev == nullptr) {
        *out = V::Miss();
        return true;
      }
      obs.Visit(1);
      if (!V::Begin(prev, &ver)) return false;
      leaf = prev;
      pos = leaf->keys.count();
      if (!V::Sane(pos, 1, cap)) return false;
    }
    for (int hop = 0;; ++hop) {
      if (pos > 0 && leaf->keys.At(pos - 1) == key) {
        typename V::Out hit =
            V::Hit(leaf->values[static_cast<size_t>(pos - 1)]);
        if (!V::Valid(leaf, ver)) return false;
        *out = std::move(hit);
        return true;
      }
      // A miss is final under the lock, in a leaf whose keys are all
      // greater (pos == 0, reached by a hop), or when a greater key in
      // this same leaf brackets the key.
      const LeafNode* next = nullptr;
      if (V::kCanFail && pos > 0) {
        const int64_t count = leaf->keys.count();
        if (!V::Sane(count, 0, cap)) return false;
        if (pos == count) next = leaf->next;
      }
      if (!V::Valid(leaf, ver)) return false;
      if (next == nullptr) {
        *out = V::Miss();
        return true;
      }
      if (hop == Tree::kMaxLeafHops || !V::Begin(next, &ver)) return false;
      leaf = next;
      pos = leaf->keys.UpperBound(key, Cmps(obs));
      if (!V::Sane(pos, 0, cap)) return false;
    }
  }

  // Leaf step of LowerBoundBatch / LowerBoundBatchGrouped, identical to
  // Tree::LowerBoundIter.
  template <typename Obs>
  static Iterator LowerBoundInLeaf(const LeafNode* leaf, Key q, Obs& obs) {
    int64_t pos = leaf->keys.LowerBound(q);
    if (pos >= leaf->keys.count()) {  // answer starts in the next leaf
      leaf = leaf->next;
      if (leaf != nullptr) obs.Visit(1);
      pos = 0;
    }
    return leaf != nullptr ? Iterator(leaf, pos) : Iterator();
  }

  // The pipelined descent: walks the group's g queries to leaf level in
  // lockstep. kLower selects lower-bound ranks (LowerBoundBatch). On
  // return cur[i] is query i's leaf, or nullptr when a writer invalidated
  // its path (already reported through v->Fail). Returns false, with no
  // query reported, when the tree is empty.
  template <bool kLower, typename V, typename Obs>
  static bool DescendGroup(const Tree& tree, const Key* keys, int g,
                           uint32_t base, V* v, const NodeBase** cur,
                           uint64_t* ver, Obs& obs) {
    if (g <= 0) __builtin_unreachable();  // groups are never empty
    const auto fail = [&](int i) {
      cur[i] = nullptr;
      v->Fail(base + static_cast<uint32_t>(i));
    };
    obs.BeginGroup();
    const NodeBase* root = nullptr;
    uint64_t vr = 0;
    if (!V::Root(tree, &root) || (root != nullptr && !V::Begin(root, &vr))) {
      for (int i = 0; i < g; ++i) fail(i);
      return true;
    }
    if (root == nullptr) return false;
    for (int i = 0; i < g; ++i) {
      cur[i] = root;
      ver[i] = vr;
    }
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    // A query that failed drops out; the rest share one depth (all
    // leaves of a B+-Tree sit at the same depth), so the lockstep never
    // diverges — the Locked loop just asks the first query.
    const auto descending = [&] {
      if (!V::kCanFail) return !cur[0]->is_leaf;
      for (int i = 0; i < g; ++i) {
        if (cur[i] != nullptr && !cur[i]->is_leaf) return true;
      }
      return false;
    };
    for (int depth = 0; descending(); ++depth) {
      if (V::kCanFail && depth == kMaxOptimisticDepth) {
        for (int i = 0; i < g; ++i) {
          if (cur[i] != nullptr) fail(i);
        }
        return true;
      }
      obs.BeginLevel();
      for (int i = 0; i < g; ++i) {
        if (V::kCanFail && (cur[i] == nullptr || cur[i]->is_leaf)) continue;
        PrefetchInner(tree, static_cast<const InnerNode*>(cur[i]));
      }
      uint32_t loaded = 0;
      const InnerNode* any = nullptr;
      for (int i = 0; i < g; ++i) {
        if (V::kCanFail && (cur[i] == nullptr || cur[i]->is_leaf)) continue;
        const InnerNode* inner = static_cast<const InnerNode*>(cur[i]);
        any = inner;
        ++loaded;
        obs.Visit(1);
        const int64_t idx = kLower
                                ? inner->keys.LowerBound(keys[i])
                                : inner->keys.UpperBound(keys[i], Cmps(obs));
        if (!V::Sane(idx, 0, inner_cap)) {
          fail(i);
          continue;
        }
        const NodeRef ref = inner->children[static_cast<size_t>(idx)];
        if (!V::Valid(inner, ver[i])) {
          fail(i);
          continue;
        }
        const NodeBase* child = V::Child(tree, ref);
        if (V::kCanFail && (child == nullptr || !V::Begin(child, &ver[i]))) {
          fail(i);
          continue;
        }
        cur[i] = child;
        Prefetch(child);
      }
      obs.EndLevel([&] { return DescribeLevel(loaded, any); });
    }
    for (int i = 0; i < g; ++i) {
      if (V::kCanFail && cur[i] == nullptr) continue;
      static_cast<const LeafNode*>(cur[i])->keys.PrefetchKeys();
    }
    return true;
  }

  // The grouped descent: walks the sorted batch skeys[0, n) from the root
  // to leaf level and leaves the leaf-level frontier in *frontier. kLower
  // selects lower-bound ranks (LowerBoundBatchGrouped), upper-bound ranks
  // otherwise; the run boundary under a separator s is therefore the first
  // query > s (lower) or >= s (upper). Each frontier node costs one
  // in-node search per child actually taken plus one binary split per
  // boundary — independent of the run's length. Under Optimistic a run is
  // partitioned on the racy snapshot and its node validated once before
  // any child is trusted; runs that fail go to fail_range. Returns false
  // when the tree is empty.
  template <bool kLower, typename V, typename FailRange, typename Obs>
  static bool DescendRuns(const Tree& tree, const Key* skeys, uint32_t n,
                          FailRange fail_range, std::vector<Run>* frontier,
                          Obs& obs) {
    const NodeBase* root = nullptr;
    uint64_t vr = 0;
    if (!V::Root(tree, &root) || (root != nullptr && !V::Begin(root, &vr))) {
      fail_range(0, n);
      return true;
    }
    if (root == nullptr) return false;
    frontier->push_back(Run{root, vr, 0, n});
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    // Optimistic: a run's children, staged until its node validates.
    struct Part {
      NodeRef ref;
      uint32_t begin;
      uint32_t end;
    };
    std::vector<Part> parts;
    const auto push_child = [&](NodeRef ref, uint32_t begin, uint32_t end,
                                std::vector<Run>* next) {
      const NodeBase* child = V::Child(tree, ref);
      uint64_t vc = 0;
      if constexpr (V::kCanFail) {
        if (child == nullptr || !V::Begin(child, &vc)) {
          fail_range(begin, end);
          return;
        }
        // The version read loaded the header: fetch the rest now (Locked
        // does this in PrefetchAhead, one lookahead distance early).
        PrefetchNode(tree, child);
      } else {
        Prefetch(child);
      }
      next->push_back(Run{child, vc, begin, end});
    };
    std::vector<Run> next;
    for (int depth = 0;; ++depth) {
      // As in DescendGroup, Locked runs reach leaf level together.
      const bool any_inner =
          !V::kCanFail
              ? !frontier->empty() && !(*frontier)[0].node->is_leaf
              : std::any_of(frontier->begin(), frontier->end(),
                            [](const Run& r) { return !r.node->is_leaf; });
      if (!any_inner) return true;
      if (V::kCanFail && depth == kMaxOptimisticDepth) {
        for (const Run& r : *frontier) fail_range(r.begin, r.end);
        frontier->clear();
        return true;
      }
      obs.BeginLevel();
      next.clear();
      const std::vector<Run>& runs = *frontier;
      for (size_t r = 0; r < runs.size(); ++r) {
        const Run& run = runs[r];
        if (V::kCanFail && run.node->is_leaf) {
          next.push_back(run);
          continue;
        }
        if constexpr (!V::kCanFail) PrefetchAhead(tree, runs, r);
        const InnerNode* inner = static_cast<const InnerNode*>(run.node);
        obs.Visit(run.end - run.begin);
        obs.Load();
        inner->keys.PrefetchKeys();
        const int64_t sep_count = inner->keys.count();
        if (!V::Sane(sep_count, 0, inner_cap)) {
          fail_range(run.begin, run.end);
          continue;
        }
        parts.clear();
        bool torn = false;
        uint32_t cur = run.begin;
        while (cur < run.end) {
          const int64_t idx =
              kLower ? inner->keys.LowerBound(skeys[cur])
                     : inner->keys.UpperBound(skeys[cur], Cmps(obs));
          if (!V::Sane(idx, 0, sep_count)) {
            torn = true;
            break;
          }
          uint32_t sub_end = run.end;
          if (idx < sep_count) {
            const Key sep = inner->keys.At(idx);
            sub_end = static_cast<uint32_t>(
                (kLower ? std::upper_bound(skeys + cur + 1, skeys + run.end,
                                           sep)
                        : std::lower_bound(skeys + cur + 1, skeys + run.end,
                                           sep)) -
                skeys);
          }
          const NodeRef ref = inner->children[static_cast<size_t>(idx)];
          if constexpr (V::kCanFail) {
            parts.push_back(Part{ref, cur, sub_end});
          } else {
            push_child(ref, cur, sub_end, &next);
          }
          cur = sub_end;
        }
        if constexpr (V::kCanFail) {
          if (torn || !V::Valid(inner, run.ver)) {
            fail_range(run.begin, run.end);
            continue;
          }
          for (const Part& p : parts) push_child(p.ref, p.begin, p.end, &next);
        }
      }
      obs.EndLevel([&] {
        return DescribeLevel(static_cast<uint32_t>(runs.size()),
                             static_cast<const InnerNode*>(runs[0].node));
      });
      frontier->swap(next);
    }
  }
};

}  // namespace simdtree::btree

#endif  // SIMDTREE_BTREE_BATCH_DESCENT_H_
