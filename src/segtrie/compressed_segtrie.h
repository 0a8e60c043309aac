// Path-compressed Seg-Trie.
//
// The paper names path compression (Leis et al., ART) as "applicable for
// our Seg-Trie but currently not implemented" (Section 4). This class
// implements it: any run of single-key levels — above the first
// divergence (the optimized Seg-Trie's lazy expansion) *and anywhere
// below* — collapses into the node beneath it. Each node stores the
// segments it skips inline (pessimistic path compression): `tag` holds
// the skip length, `aux` the skipped segment values. A lookup therefore
// touches exactly one node per *branching* level, which removes the
// single-key chain walks that dominate sparse deep tries (see
// bench/ablation_path_compression).
//
// Node semantics: a node N at segment level L(N) with skip s(N) encodes
// the fixed segments [L(N)-s(N), L(N)) in aux (most recently skipped
// segment in the lowest bits... specifically segment L(N)-1 in bits
// [0, kSegmentBits), segment L(N)-2 in the next group, and so on); its
// partial keys discriminate segment L(N). The root hangs from a virtual
// parent above level 0, so the shared key prefix of the whole trie is
// just the root's skip — lazy expansion falls out for free.
//
// Deletions remove empty nodes but do not re-compress paths (like ART's
// deletion without eager merging, and matching the optimized Seg-Trie's
// behaviour of never re-omitting levels).
//
// The inline skip storage bounds one node's skip to 64 bits
// (kMaxSkip = 64/kSegmentBits segments); longer runs simply chain two
// compressed nodes, preserving correctness for 128-bit keys.

#ifndef SIMDTREE_SEGTRIE_COMPRESSED_SEGTRIE_H_
#define SIMDTREE_SEGTRIE_COMPRESSED_SEGTRIE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/descent_observer.h"
#include "segtrie/compact_node.h"
#include "segtrie/segtrie.h"
#include "simd/bitmask_eval.h"
#include "simd/simd128.h"

namespace simdtree::segtrie {

template <typename Key, typename Value, int kSegmentBits = 8,
          typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
class CompressedSegTrie {
  static_assert(kIsTrieKey<Key>, "unsigned keys only (see key_codec.h)");
  static_assert(kSegmentBits == 4 || kSegmentBits == 8 || kSegmentBits == 16);
  static_assert(static_cast<int>(sizeof(Key)) * 8 % kSegmentBits == 0);

 public:
  using KeyType = Key;
  using ValueType = Value;
  using Partial = std::conditional_t<kSegmentBits <= 8, uint8_t, uint16_t>;
  static constexpr int kLevels =
      static_cast<int>(sizeof(Key)) * 8 / kSegmentBits;
  static constexpr int64_t kDomain = int64_t{1} << kSegmentBits;
  static constexpr int kMaxSkip = 64 / kSegmentBits;

  CompressedSegTrie()
      : ctx_(kDomain, simd::LaneTraits<Partial, kBits>::kArity) {}

  ~CompressedSegTrie() { Clear(); }

  CompressedSegTrie(CompressedSegTrie&& other) noexcept
      : ctx_(std::move(other.ctx_)), root_(other.root_), size_(other.size_) {
    other.root_ = nullptr;
    other.size_ = 0;
  }
  CompressedSegTrie& operator=(CompressedSegTrie&& other) noexcept {
    if (this != &other) {
      Clear();
      ctx_ = std::move(other.ctx_);
      root_ = other.root_;
      size_ = other.size_;
      other.root_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  CompressedSegTrie(const CompressedSegTrie&) = delete;
  CompressedSegTrie& operator=(const CompressedSegTrie&) = delete;

  // --- modification -------------------------------------------------------

  // Inserts or overwrites; returns true when the key was new.
  bool Insert(Key key, Value value) {
    if (root_ == nullptr) {
      root_ = MakeLeafFor(key, /*from_level=*/0, std::move(value));
      size_ = 1;
      return true;
    }
    Inner* parent = nullptr;
    int64_t parent_idx = 0;
    void* node = root_;
    int level = 0;  // segment index the descent is about to consume
    while (true) {
      const int node_level = NodeLevel(node, level);
      const bool is_leaf = node_level == kLevels - 1;
      // Check the skipped segments; a mismatch splits the edge.
      const int skip = node_level - level;
      const int diverge = FirstSkipMismatch(node, is_leaf, key, level, skip);
      if (diverge >= 0) {
        SplitEdge(parent, parent_idx, node, is_leaf, key, level, diverge,
                  std::move(value));
        ++size_;
        return true;
      }
      level = node_level;
      const Partial partial = Segment(key, level);
      if (is_leaf) {
        Leaf* leaf = static_cast<Leaf*>(node);
        const int64_t pos = leaf->UpperBound(ctx_, partial);
        if (pos > 0 && leaf->PartialAt(ctx_, pos - 1) == partial) {
          leaf->EntryAt(pos - 1) = std::move(value);
          return false;
        }
        Leaf* updated =
            Leaf::Insert(leaf, ctx_, pos, partial, std::move(value));
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
        ++level;
        continue;
      }
      void* child = MakeLeafFor(key, level + 1, std::move(value));
      Inner* updated = Inner::Insert(inner, ctx_, pos, partial, child);
      FixParent(parent, parent_idx, inner, updated);
      ++size_;
      return true;
    }
  }

  bool Erase(Key key) {
    if (root_ == nullptr) return false;
    if (!EraseRec(root_, 0, key)) return false;
    --size_;
    if (NodeCount(root_, 0) == 0) {
      FreeNode(root_, 0);
      root_ = nullptr;
      size_ = 0;
    }
    return true;
  }

  // O(slabs) when arena-backed: every node lives in ctx_.arena, so Clear
  // is one arena reset; the per-node walk is the heap-mode fallback.
  void Clear() {
    if (root_ != nullptr) {
      if (ctx_.arena.arena_mode()) {
        ctx_.arena.Reset();
      } else {
        FreeNode(root_, 0);
      }
    }
    root_ = nullptr;
    size_ = 0;
  }

  // --- lookup ---------------------------------------------------------------

  template <typename Obs = NullObserver>
  std::optional<Value> Find(Key key, Obs&& obs = {}) const {
    obs.Begin();
    const void* node = root_;
    int level = 0;
    // Path-compressed skips make a span here one node touched, not one
    // raw trie level.
    const auto span = [&] {
      const auto ref = static_cast<uint32_t>(reinterpret_cast<uintptr_t>(node));
      return LevelDesc{ref, obs::kTraceLayoutTrieNode, obs::kTraceSlabUnknown,
                       obs::TraceBackend::kCompressedSegTrie};
    };
    while (node != nullptr) {
      obs.BeginLevel();
      obs.Visit(1);
      const int node_level = NodeLevel(node, level);
      const bool is_leaf = node_level == kLevels - 1;
      if (FirstSkipMismatch(node, is_leaf, key, level, node_level - level) >=
          0) {
        obs.EndLevel(span);
        return std::nullopt;
      }
      level = node_level;
      const Partial partial = Segment(key, level);
      if (is_leaf) {
        const Leaf* leaf = static_cast<const Leaf*>(node);
        const int64_t idx = leaf->FindPartial(ctx_, partial, obs);
        obs.EndLevel(span);
        if (idx < 0) return std::nullopt;
        return leaf->EntryAt(idx);
      }
      const Inner* inner = static_cast<const Inner*>(node);
      const int64_t idx = inner->FindPartial(ctx_, partial, obs);
      obs.EndLevel(span);
      if (idx < 0) return std::nullopt;
      node = inner->EntryAt(idx);
      ++level;
    }
    return std::nullopt;
  }

  bool Contains(Key key) const { return Find(key).has_value(); }

  // Find that also counts nodes visited (one per branching level) and
  // in-node comparison steps (complexity tests).
  std::optional<Value> FindCounted(Key key, SearchCounters* counters) const {
    CountingObserver counting(counters);
    return Find(key, counting);
  }

  // Find that also records a descent trace (obs/trace.h), one level span
  // per compact node searched (node_ref = the block address's low 32
  // bits). Stamps backend, key and found.
  std::optional<Value> FindTraced(Key key, obs::DescentTrace* t) const {
    TraceObserver traced(t);
    return traced.Stamp(key, Find(key, traced));
  }

  // In-order traversal, ascending keys.
  template <typename Fn>
  void ForEach(Fn fn) const {
    if (root_ != nullptr) ForEachRec(root_, 0, Key{0}, fn);
  }

  // --- introspection ----------------------------------------------------------

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  TrieStats Stats() const {
    TrieStats s;
    s.max_levels = kLevels;
    s.keys = size_;
    s.memory_bytes =
        sizeof(*this) +
        static_cast<size_t>(ctx_.layout.slots()) * 2 * sizeof(uint32_t);
    int max_depth = 0;
    if (root_ != nullptr) CollectStats(root_, 0, 1, &s, &max_depth);
    s.levels = max_depth;  // branching levels on the deepest path
    return s;
  }

  size_t MemoryBytes() const { return Stats().memory_bytes; }

  // Occupancy of the node arena (reserved slab bytes vs. live block
  // bytes); all-zero counters in heap mode except allocs/frees.
  mem::ArenaStats MemStats() const { return ctx_.arena.Stats(); }

  bool Validate() const {
    if (root_ == nullptr) return size_ == 0;
    size_t counted = 0;
    if (!ValidateRec(root_, 0, &counted)) return false;
    return counted == size_;
  }

 private:
  using Leaf = CompactTrieNode<Partial, Value, Eval, B, kBits>;
  using Inner = CompactTrieNode<Partial, void*, Eval, B, kBits>;

  static Partial Segment(Key key, int level) {
    const int shift = (kLevels - 1 - level) * kSegmentBits;
    return static_cast<Partial>((key >> shift) &
                                static_cast<Key>(kDomain - 1));
  }

  // skip metadata accessors (shared layout between Leaf and Inner: tag and
  // aux sit in the common header).
  static int SkipOf(const void* node, bool is_leaf) {
    return is_leaf ? static_cast<int>(static_cast<const Leaf*>(node)->tag())
                   : static_cast<int>(static_cast<const Inner*>(node)->tag());
  }
  static uint64_t AuxOf(const void* node, bool is_leaf) {
    return is_leaf ? static_cast<const Leaf*>(node)->aux()
                   : static_cast<const Inner*>(node)->aux();
  }

  // The segment level a node discriminates, given the level the descent
  // reached it at. A node is a leaf iff level + skip == kLevels - 1,
  // which is how the descent distinguishes the two block types — so the
  // skip must be read before the type is known. Leaf and Inner share the
  // same standard-layout header; the tag is read bytewise to stay clear
  // of aliasing rules.
  int NodeLevel(const void* node, int arrival_level) const {
    uint32_t tag;
    std::memcpy(&tag,
                static_cast<const char*>(node) +
                    offsetof(typename Inner::Header, tag),
                sizeof(tag));
    return arrival_level + static_cast<int>(tag);
  }

  int64_t NodeCount(const void* node, int arrival_level) const {
    const int node_level = NodeLevel(node, arrival_level);
    return node_level == kLevels - 1
               ? static_cast<const Leaf*>(node)->count()
               : static_cast<const Inner*>(node)->count();
  }

  // Index (0-based, within the skipped run) of the first skipped segment
  // that differs from the key's, or -1 if all match.
  int FirstSkipMismatch(const void* node, bool is_leaf, Key key, int level,
                        int skip) const {
    if (skip == 0) return -1;
    const uint64_t aux = AuxOf(node, is_leaf);
    for (int i = 0; i < skip; ++i) {
      const Partial expected = static_cast<Partial>(
          (aux >> ((skip - 1 - i) * kSegmentBits)) & (kDomain - 1));
      if (Segment(key, level + i) != expected) return i;
    }
    return -1;
  }

  // Packs the key's segments [from, to) into an aux word (earlier segment
  // in higher bits).
  static uint64_t PackSkip(Key key, int from, int to) {
    uint64_t aux = 0;
    for (int l = from; l < to; ++l) {
      aux = (aux << kSegmentBits) |
            static_cast<uint64_t>(Segment(key, l));
    }
    return aux;
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

  // A compressed leaf (or chain of compressed nodes when the run exceeds
  // kMaxSkip) holding `key` below segment level `from_level`.
  void* MakeLeafFor(Key key, int from_level, Value value) {
    // Leaf discriminates the final segment; skip the run above it.
    int leaf_skip = (kLevels - 1) - from_level;
    int chain_top_level = from_level;
    std::vector<std::pair<int, int>> inner_hops;  // (level, skip) top-down
    while (leaf_skip > kMaxSkip) {
      // Insert an intermediate single-entry inner node absorbing
      // kMaxSkip - ... segments: it discriminates one segment and skips
      // up to kMaxSkip above it.
      const int skip = std::min(kMaxSkip, leaf_skip - 1);
      inner_hops.emplace_back(chain_top_level + skip, skip);
      chain_top_level += skip + 1;
      leaf_skip = (kLevels - 1) - chain_top_level;
    }
    Leaf* leaf = Leaf::MakeSingle(
        ctx_, Segment(key, kLevels - 1),
        std::move(value));
    leaf->set_tag(static_cast<uint32_t>(leaf_skip));
    leaf->set_aux(PackSkip(key, chain_top_level, kLevels - 1));
    void* below = leaf;
    for (auto it = inner_hops.rbegin(); it != inner_hops.rend(); ++it) {
      const int level = it->first;
      const int skip = it->second;
      Inner* inner = Inner::MakeSingle(
          ctx_, Segment(key, level), below);
      inner->set_tag(static_cast<uint32_t>(skip));
      inner->set_aux(PackSkip(key, level - skip, level));
      below = inner;
    }
    return below;
  }

  // Splits the edge into `node` at skip offset `diverge`: a new branch
  // node takes over the shared prefix and points to both the shortened
  // `node` and a fresh leaf for `key`.
  void SplitEdge(Inner* parent, int64_t parent_idx, void* node, bool is_leaf,
                 Key key, int level, int diverge, Value value) {
    const int skip = SkipOf(node, is_leaf);
    const uint64_t aux = AuxOf(node, is_leaf);
    assert(diverge < skip);
    const int branch_level = level + diverge;

    // Shorten the existing node: it keeps the segments below the branch.
    const int new_skip = skip - diverge - 1;
    const uint64_t new_aux =
        new_skip == 0 ? 0 : aux & ((uint64_t{1} << (new_skip * kSegmentBits)) - 1);
    const Partial node_partial = static_cast<Partial>(
        (aux >> (new_skip * kSegmentBits)) & (kDomain - 1));
    if (is_leaf) {
      static_cast<Leaf*>(node)->set_tag(static_cast<uint32_t>(new_skip));
      static_cast<Leaf*>(node)->set_aux(new_aux);
    } else {
      static_cast<Inner*>(node)->set_tag(static_cast<uint32_t>(new_skip));
      static_cast<Inner*>(node)->set_aux(new_aux);
    }

    void* fresh = MakeLeafFor(key, branch_level + 1, std::move(value));
    const Partial key_partial = Segment(key, branch_level);
    assert(key_partial != node_partial);

    Inner* branch;
    if (key_partial < node_partial) {
      branch = Inner::MakeSingle(ctx_, key_partial, fresh);
      branch = Inner::Insert(branch, ctx_, 1, node_partial, node);
    } else {
      branch = Inner::MakeSingle(ctx_, node_partial, node);
      branch = Inner::Insert(branch, ctx_, 1, key_partial, fresh);
    }
    branch->set_tag(static_cast<uint32_t>(diverge));
    branch->set_aux(diverge == 0
                        ? 0
                        : aux >> ((skip - diverge) * kSegmentBits));
    FixParent(parent, parent_idx, node, branch);
  }

  bool EraseRec(void* node, int level, Key key) {
    const int node_level = NodeLevel(node, level);
    const bool is_leaf = node_level == kLevels - 1;
    if (FirstSkipMismatch(node, is_leaf, key, level, node_level - level) >=
        0) {
      return false;
    }
    const Partial partial = Segment(key, node_level);
    if (is_leaf) {
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
    if (!EraseRec(child, node_level + 1, key)) return false;
    if (NodeCount(child, node_level + 1) == 0) {
      FreeNode(child, node_level + 1);
      Inner::Remove(inner, ctx_, idx);
    }
    return true;
  }

  void FreeNode(void* node, int arrival_level) {
    const int node_level = NodeLevel(node, arrival_level);
    if (node_level == kLevels - 1) {
      Leaf::Free(ctx_, static_cast<Leaf*>(node));
      return;
    }
    Inner* inner = static_cast<Inner*>(node);
    for (int64_t i = 0; i < inner->count(); ++i) {
      FreeNode(inner->EntryAt(i), node_level + 1);
    }
    Inner::Free(ctx_, inner);
  }

  template <typename Fn>
  void ForEachRec(const void* node, int level, Key prefix, Fn& fn) const {
    const int node_level = NodeLevel(node, level);
    const bool is_leaf = node_level == kLevels - 1;
    const int skip = node_level - level;
    Key bits = prefix;
    if (skip > 0) {
      const uint64_t aux = AuxOf(node, is_leaf);
      const int shift = (kLevels - node_level) * kSegmentBits;
      bits |= static_cast<Key>(aux) << shift;
    }
    const int seg_shift = (kLevels - 1 - node_level) * kSegmentBits;
    if (is_leaf) {
      const Leaf* leaf = static_cast<const Leaf*>(node);
      for (int64_t i = 0; i < leaf->count(); ++i) {
        fn(bits | (static_cast<Key>(leaf->PartialAt(ctx_, i)) << seg_shift),
           leaf->EntryAt(i));
      }
      return;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    for (int64_t i = 0; i < inner->count(); ++i) {
      ForEachRec(
          inner->EntryAt(i), node_level + 1,
          bits | (static_cast<Key>(inner->PartialAt(ctx_, i)) << seg_shift),
          fn);
    }
  }

  bool ValidateRec(const void* node, int level, size_t* counted) const {
    const int node_level = NodeLevel(node, level);
    if (node_level >= kLevels) return false;
    const bool is_leaf = node_level == kLevels - 1;
    const int64_t n = NodeCount(node, level);
    if (n <= 0 || n > kDomain) return false;
    if (is_leaf) {
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
      if (!ValidateRec(inner->EntryAt(i), node_level + 1, counted)) {
        return false;
      }
    }
    return true;
  }

  void CollectStats(const void* node, int level, int depth, TrieStats* s,
                    int* max_depth) const {
    const int node_level = NodeLevel(node, level);
    const bool is_leaf = node_level == kLevels - 1;
    ++s->nodes;
    if (depth > *max_depth) *max_depth = depth;
    if (is_leaf) {
      s->memory_bytes += static_cast<const Leaf*>(node)->MemoryBytes();
      return;
    }
    const Inner* inner = static_cast<const Inner*>(node);
    s->memory_bytes += inner->MemoryBytes();
    for (int64_t i = 0; i < inner->count(); ++i) {
      CollectStats(inner->EntryAt(i), node_level + 1, depth + 1, s,
                   max_depth);
    }
  }

  typename Inner::Context ctx_;
  void* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace simdtree::segtrie

#endif  // SIMDTREE_SEGTRIE_COMPRESSED_SEGTRIE_H_
