// The B+-Tree lookup engines, shared by the plain (binary-search) and Seg
// (SIMD k-ary) key stores: one single-key descent, one group software-
// pipelined batch descent and one grouped (level-wise) batch descent.
//
// A single root-to-leaf descent cannot know a child before the current
// node's separators have been searched, so its levels wait for memory
// one after another (paper Section 5.4: "the processor is mainly waiting
// for data from main memory"). Inside a node the k-ary steps depend on
// one another too, each reading a line the previous step chose; Find
// therefore fetches every node whole before searching it, so a level
// costs one miss rather than one per k-ary step. That matters when the
// tree is cache-resident but a writer on another core keeps rewriting
// its leaves. Level-wise batch traversal (after Tzschoppe et al.
// and the BS-tree's data-parallel multi-query processing) converts that
// latency into throughput: a group of up to kMaxBatchGroup independent
// queries descends in lockstep, one level at a time. The pipelined
// engine takes one tree per query, every tree of one type, so a
// ShardedIndex runs one group across all its shards (core/sharded.h); a
// tree's own FindBatch passes itself for every query. Trees may differ in
// height, and a query on an empty tree answers a miss. Every level runs
// three passes over the group's nodes:
//   1. one lockstep search of all the nodes (the key store's
//      UpperBoundGroup: paper Algorithm 5 step by step across the group,
//      each query's next k-ary line prefetched as soon as its previous
//      step is known, so only the ~5 lines the steps read are fetched);
//   2. a prefetch of the one child-ref line each query chose;
//   3. per query, the child ref read, validated and decoded through the
//      node pool's slab table, and the child's header lines prefetched;
//      the children's version words are read together on the next level.
// The leaf level runs the same search, prefetches each hit's value line,
// and hands ResolveLeaf the position. A group of at most
// kWholeNodePrefetchMaxGroup (core/batch.h) queries instead fetches each
// node whole (every key line and its count + 1 child refs) and searches
// it with the single-key search: a lone query has no other query's
// misses to overlap. The grouped schedule sorts the batch once and
// visits each node once per batch, splitting the sorted run it routes
// across the node's children; it fetches each frontier node whole before
// searching it (one lookahead distance ahead under Locked, as soon as
// the child is pushed under Optimistic), and keeps its sort buffers and
// frontiers in per-thread scratch.
//
// Each engine is written once and templated on a validation policy
// (Locked or Optimistic, below) and an observer (core/descent_observer.h)
// whose hooks compile away in the NullObserver instantiation. Results are
// exactly those of per-key Find. BatchDescent is a friend of
// GenericBPlusTree: the engines need the node types, which stay private
// to the tree.

#ifndef SIMDTREE_BTREE_BATCH_DESCENT_H_
#define SIMDTREE_BTREE_BATCH_DESCENT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
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

  // One root-to-leaf descent of `key` into *out. Each node is fetched
  // whole (Tree::PrefetchNode) before its search, so the k-ary steps
  // inside it wait for one miss, not one per step. Locked always
  // answers; Optimistic returns kConflict when a writer invalidated the
  // path, with *out untouched.
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
      tree.PrefetchNode(inner);
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
    tree.PrefetchNode(leaf);
    const bool ok = ResolveLeaf<V>(tree, leaf, ver, key, out, obs);
    obs.EndLevel([&] { return Describe(tree, leaf); });
    return ok ? olc::ReadResult::kOk : olc::ReadResult::kConflict;
  }

  // Pipelined batch over the queries j = sel[0], ..., sel[n - 1] (j = 0,
  // ..., n - 1 when sel is null): query j answers keys[j] in *tree_of(j)
  // through the policy, as v.out[j] or v.Fail(j). The queries descend in
  // ForEachBatchGroup groups of at most `group`.
  template <typename V, typename TreeOf, typename Obs>
  static void FindBatch(TreeOf tree_of, const Key* keys, const uint32_t* sel,
                        size_t n, V v, int group, Obs& obs) {
    [[maybe_unused]] typename V::ReadScope scope;
    ForEachBatchGroup(n, group, [&](size_t off, int g) {
      const Group grp(tree_of, keys, sel, off, g);
      const NodeBase* cur[kMaxBatchGroup];
      uint64_t ver[kMaxBatchGroup];
      const uint32_t empty = DescendGroup(grp, &v, cur, ver, obs);
      // Leaf level: one lockstep search, then each hit's value line is
      // fetched while the rest of the group resolves.
      obs.BeginLevel();
      const LeafNode* leaf[kMaxBatchGroup] = {};
      int at[kMaxBatchGroup] = {};
      const int live = Gather(grp, cur, leaf, at);
      int64_t pos[kMaxBatchGroup];
      SearchGroup(grp, leaf, at, live, pos, obs);
      for (int k = 0; k < live; ++k) {
        if (pos[k] > 0) PrefetchRead(&leaf[k]->values[pos[k] - 1]);
      }
      for (int k = 0; k < live; ++k) {
        const int i = at[k];
        obs.Visit(1);
        if (!ResolveLeaf<V, Obs, true>(*grp.tree[i], leaf[k], ver[i],
                                       grp.key[i], &v.out[grp.id[i]], obs,
                                       pos[k])) {
          v.Fail(grp.id[i]);
        }
      }
      for (int i = 0; i < g; ++i) {
        if ((empty >> i) & 1u) v.out[grp.id[i]] = V::Miss();
      }
      obs.EndLevel([&] {
        return DescribeLevel(static_cast<uint32_t>(live),
                             live > 0 ? leaf[0] : nullptr);
      });
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
    GroupedScratch& scratch = Scratch();
    const ScratchRelease release{n};
    SortBatchWithPermutation(keys, n, &scratch.sorted);
    const Key* skeys = scratch.sorted.keys.data();
    const uint32_t* perm = scratch.sorted.perm.data();
    const auto fail_range = [&](uint32_t b, uint32_t e) {
      for (uint32_t j = b; j < e; ++j) v.Fail(perm[j]);
    };
    const std::vector<Run>& frontier = scratch.frontier;
    if (!DescendRuns<V>(tree, skeys, static_cast<uint32_t>(n), fail_range,
                        scratch, obs)) {
      for (size_t i = 0; i < n; ++i) v.out[i] = V::Miss();
      return;
    }
    // Leaf level: one pass per run. Duplicate queries (adjacent after the
    // sort) reuse the previous answer.
    obs.BeginLevel();
    const int64_t leaf_cap = tree.leaf_ctx_->capacity;
    std::vector<uint32_t>& deferred = scratch.deferred;  // runs' unproven
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

  // Optimistic: a run's children, staged until its node validates.
  struct Part {
    NodeRef ref;
    uint32_t begin;
    uint32_t end;
  };

  // The grouped engines' buffers, reused by every grouped batch the
  // thread runs, so a warm read allocates nothing; a batch of more than
  // kMaxRetainedBatchKeys queries frees them on return (ScratchRelease).
  // The engines never re-enter one another on a thread.
  struct GroupedScratch {
    SortedBatch<Key> sorted;
    std::vector<Run> frontier;  // the current level; leaf level on return
    std::vector<Run> next;
    std::vector<Part> parts;
    std::vector<uint32_t> deferred;
  };
  static GroupedScratch& Scratch() {
    thread_local GroupedScratch scratch;
    return scratch;
  }
  struct ScratchRelease {
    size_t n;
    ~ScratchRelease() {
      if (n > kMaxRetainedBatchKeys) Scratch() = GroupedScratch{};
    }
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

  // The header lines of either node kind: version word, key-store
  // fields (the count, the key array's address) and the child or value
  // array's address, which every search reads before any key.
  static constexpr size_t kNodeHeaderBytes =
      std::max(sizeof(InnerNode), sizeof(LeafNode));

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
      tree.PrefetchNode(runs[r + kGroupedRunLookahead].node);
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

  // Leaf step of Find, single-key and pipelined: the occurrence of `key`,
  // if any, sits just before its upper bound in `leaf` — possibly at the
  // end of the previous leaf. Find leaves the search to this step; the
  // pipelined engine has searched the leaf already and passes the bound
  // as `searched` (kSearched). Locked answers there.
  // Optimistic cannot take "greater than everything here" as a miss: a
  // split committing between the parent's validation and this leaf's
  // Begin moves the upper part of the range into a new right sibling, so
  // it chases `next` (at most Tree::kMaxLeafHops leaves) until a leaf
  // brackets the key. Returns false on a conflict, with *out untouched.
  template <typename V, typename Obs, bool kSearched = false>
  static bool ResolveLeaf(const Tree& tree, const LeafNode* leaf, uint64_t ver,
                          Key key, typename V::Out* out, Obs& obs,
                          int64_t searched = 0) {
    const int64_t cap = tree.leaf_ctx_->capacity;
    int64_t pos =
        kSearched ? searched : leaf->keys.UpperBound(key, Cmps(obs));
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

  // One pipelined group: query i of g answers key[i] in *tree[i] and
  // reports as query id[i] of the batch.
  struct Group {
    template <typename TreeOf>
    Group(TreeOf& tree_of, const Key* keys, const uint32_t* sel, size_t off,
          int g_in)
        : g(g_in) {
      for (int i = 0; i < g; ++i) {
        const size_t k = off + static_cast<size_t>(i);
        id[i] = sel != nullptr ? sel[k] : static_cast<uint32_t>(k);
        tree[i] = tree_of(id[i]);
        key[i] = keys[id[i]];
      }
    }
    int g;
    const Tree* tree[kMaxBatchGroup];
    Key key[kMaxBatchGroup];
    uint32_t id[kMaxBatchGroup];
  };

  // Collects the group's queries still holding a node of type Node
  // (inner: still descending; leaf: reached leaf level) into node[] and
  // their group slots into at[]; returns how many.
  template <typename Node>
  static int Gather(const Group& grp, const NodeBase* const* cur,
                    const Node** node, int* at) {
    constexpr bool kLeaf = std::is_same_v<Node, LeafNode>;
    int live = 0;
    for (int i = 0; i < grp.g; ++i) {
      if (cur[i] == nullptr || cur[i]->is_leaf != kLeaf) continue;
      node[live] = static_cast<const Node*>(cur[i]);
      at[live++] = i;
    }
    return live;
  }

  // The search of one level: pos[k] = upper bound of the key of query
  // at[k] in node[k], for the `live` nodes. A group of at most
  // kWholeNodePrefetchMaxGroup queries fetches each node whole and
  // searches it with the single-key search, since a lone query or a pair
  // has no other query's misses to overlap. A larger group runs one
  // lockstep search through the key store's group search, which fetches
  // only the line each query's next k-ary step reads; a level with one
  // query left searches it alone.
  template <typename Node, typename Obs>
  static void SearchGroup(const Group& grp, const Node* const* node,
                          const int* at, int live, int64_t* pos, Obs& obs) {
    using Store = std::remove_cv_t<decltype(node[0]->keys)>;
    const Store* stores[kMaxBatchGroup];
    Key vals[kMaxBatchGroup];
    const bool whole = grp.g <= kWholeNodePrefetchMaxGroup;
    for (int k = 0; k < live; ++k) {
      if (whole) grp.tree[at[k]]->PrefetchNode(node[k]);
      stores[k] = &node[k]->keys;
      vals[k] = grp.key[at[k]];
    }
    if (whole || live <= 1) {
      for (int k = 0; k < live; ++k) {
        pos[k] = stores[k]->UpperBound(vals[k], Cmps(obs));
      }
      return;
    }
    Store::UpperBoundGroup(stores, vals, live, pos, Cmps(obs));
  }

  // The pipelined descent: walks the group's queries to leaf level in
  // lockstep. On return cur[i] is query i's leaf, or nullptr when a writer invalidated
  // its path (already reported through v->Fail) or its tree is empty.
  // Returns the mask of queries on an empty tree, none of them reported.
  // Each query's depth is its own: a query whose tree is shorter waits at
  // leaf level while the others descend.
  template <typename V, typename Obs>
  static uint32_t DescendGroup(const Group& grp, V* v, const NodeBase** cur,
                               uint64_t* ver, Obs& obs) {
    const int g = grp.g;
    if (g <= 0) __builtin_unreachable();  // groups are never empty
    const auto fail = [&](int i) {
      cur[i] = nullptr;
      v->Fail(grp.id[i]);
    };
    obs.BeginGroup();
    uint32_t empty = 0;
    const NodeBase* root = nullptr;
    uint64_t vr = 0;
    bool ok = false;
    for (int i = 0; i < g; ++i) {
      if (i == 0 || grp.tree[i] != grp.tree[i - 1]) {  // V::Root per tree
        ok = V::Root(*grp.tree[i], &root) &&
             (root == nullptr || V::Begin(root, &vr));
      }
      cur[i] = root;
      ver[i] = vr;
      if (!ok) {
        fail(i);
      } else if (root == nullptr) {
        empty |= 1u << i;
      }
    }
    uint32_t fresh = 0;  // queries whose node's version is still unread
    for (int depth = 0;; ++depth) {
      // The children the last level reached: their header lines are in
      // flight, so the version reads of the whole group overlap.
      for (int i = 0; V::kCanFail && i < g; ++i) {
        if (((fresh >> i) & 1u) != 0 && !V::Begin(cur[i], &ver[i])) fail(i);
      }
      fresh = 0;
      const InnerNode* node[kMaxBatchGroup] = {};
      int at[kMaxBatchGroup] = {};
      const int live = Gather(grp, cur, node, at);
      if (live == 0) break;
      if (V::kCanFail && depth == kMaxOptimisticDepth) {
        for (int k = 0; k < live; ++k) fail(at[k]);
        break;
      }
      obs.BeginLevel();
      int64_t idx[kMaxBatchGroup];
      SearchGroup(grp, node, at, live, idx, obs);
      for (int k = 0; k < live; ++k) {
        const Tree& tree = *grp.tree[at[k]];
        if (V::Sane(idx[k], 0, tree.inner_ctx_->capacity)) {
          PrefetchRead(node[k]->children.data() + idx[k]);
        }
      }
      for (int k = 0; k < live; ++k) {
        const int i = at[k];
        const Tree& tree = *grp.tree[i];
        obs.Visit(1);
        if (!V::Sane(idx[k], 0, tree.inner_ctx_->capacity)) {
          fail(i);
          continue;
        }
        const NodeRef ref = node[k]->children[static_cast<size_t>(idx[k])];
        if (!V::Valid(node[k], ver[i])) {
          fail(i);
          continue;
        }
        const NodeBase* child = V::Child(tree, ref);
        if (V::kCanFail && child == nullptr) {
          fail(i);
          continue;
        }
        cur[i] = child;
        fresh |= 1u << i;
        mem::PrefetchLines(child, kNodeHeaderBytes);
      }
      obs.EndLevel([&] {
        return DescribeLevel(static_cast<uint32_t>(live), node[0]);
      });
    }
    return empty;
  }

  // The grouped descent: walks the sorted batch skeys[0, n) from the root
  // to leaf level and leaves the leaf-level frontier in scratch.frontier.
  // Queries route by upper-bound ranks, so the run boundary under a
  // separator s is the first query >= s. Each frontier node costs one
  // in-node search per child actually taken plus one binary split per
  // boundary — independent of the run's length. Under Optimistic a run is
  // partitioned on the racy snapshot and its node validated once before
  // any child is trusted; runs that fail go to fail_range. Returns false
  // when the tree is empty.
  template <typename V, typename FailRange, typename Obs>
  static bool DescendRuns(const Tree& tree, const Key* skeys, uint32_t n,
                          FailRange fail_range, GroupedScratch& scratch,
                          Obs& obs) {
    std::vector<Run>* frontier = &scratch.frontier;
    frontier->clear();
    const NodeBase* root = nullptr;
    uint64_t vr = 0;
    if (!V::Root(tree, &root) || (root != nullptr && !V::Begin(root, &vr))) {
      fail_range(0, n);
      return true;
    }
    if (root == nullptr) return false;
    frontier->push_back(Run{root, vr, 0, n});
    const int64_t inner_cap = tree.inner_ctx_->capacity;
    std::vector<Part>& parts = scratch.parts;
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
        tree.PrefetchNode(child);
      } else {
        Prefetch(child);
      }
      next->push_back(Run{child, vc, begin, end});
    };
    std::vector<Run>& next = scratch.next;
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
          const int64_t idx = inner->keys.UpperBound(skeys[cur], Cmps(obs));
          if (!V::Sane(idx, 0, sep_count)) {
            torn = true;
            break;
          }
          uint32_t sub_end = run.end;
          if (idx < sep_count) {
            const Key sep = inner->keys.At(idx);
            sub_end = static_cast<uint32_t>(
                std::lower_bound(skeys + cur + 1, skeys + run.end, sep) -
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
