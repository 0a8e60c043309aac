// Compact single-allocation trie nodes.
//
// A Seg-Trie lookup touches one node per level; if a node scatters its
// header, linearized key array, and child/value array over separate heap
// blocks, every level costs several dependent cache misses and the trie's
// constant-depth advantage (paper Section 4) drowns in memory latency.
// The paper's own implementation stores per-node arrays inline ("our
// implementation will store the same pointer array and an additional
// array for all possible key representation", Section 6).
//
// CompactTrieNode therefore packs everything into one block:
//
//   [ header | linearized partial keys (padded) | entries ]
//
// where entries are child pointers (branching levels) or values (leaf
// level), kept in logical (sorted) order. Blocks grow geometrically in
// node-granular steps; a descent reads one contiguous block per level.
//
// Entries must be trivially copyable (blocks are grown with memcpy); for
// an index structure mapping integer keys to tuple ids / pointers this is
// the natural contract.

#ifndef SIMDTREE_SEGTRIE_COMPACT_NODE_H_
#define SIMDTREE_SEGTRIE_COMPACT_NODE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "core/descent_observer.h"
#include "kary/kary_search.h"
#include "kary/linearize.h"
#include "mem/arena.h"
#include "simd/bitmask_eval.h"
#include "simd/simd128.h"

namespace simdtree::segtrie {

// Shared per-trie state: the k-ary layout for the partial-key domain, a
// scratch buffer for relinearization (single mutator, like SegKeyStore),
// and the byte arena every node block of the trie is carved from —
// compact blocks grow by doubling, so freed blocks requeue exactly on
// the arena's power-of-two free lists, and trie teardown is an O(slabs)
// arena reset. `arity` must match the register width the nodes search
// with (LaneTraits<Partial, kBits>::kArity).
template <typename Partial>
struct CompactNodeContext {
  explicit CompactNodeContext(
      int64_t domain, int arity = simd::LaneTraits<Partial>::kArity)
      : domain_size(domain),
        layout(kary::KaryShape::For(arity, domain),
               kary::Layout::kBreadthFirst) {
    scratch.reserve(static_cast<size_t>(layout.slots()));
  }
  int64_t domain_size;
  kary::KaryLayout layout;
  mutable std::vector<Partial> scratch;
  mutable mem::ByteArena arena;
};

// One trie node. EntryT is Node* on branching levels and the value type
// on the leaf level; the block layout adapts to its size/alignment.
template <typename Partial, typename EntryT,
          typename Eval = simd::PopcountEval,
          simd::Backend B = simd::kDefaultBackend, int kBits = 128>
class CompactTrieNode {
  static_assert(std::is_trivially_copyable_v<EntryT>,
                "compact trie entries are grown with memcpy");

 public:
  using Context = CompactNodeContext<Partial>;

  struct Header {
    uint32_t count;      // real partial keys
    uint32_t slot_cap;   // materialized linearized slots (multiple of k-1)
    uint32_t entry_cap;  // entry slots
    uint32_t tag;        // owner-defined (path compression: skip length)
    uint64_t aux;        // owner-defined (path compression: skip segments)
  };

  // --- allocation ----------------------------------------------------------

  static CompactTrieNode* Allocate(const Context& ctx, int64_t slot_cap,
                                   int64_t entry_cap) {
    const size_t bytes = BlockBytes(slot_cap, entry_cap);
    void* mem = ctx.arena.Alloc(bytes, kAlign);
    auto* node = static_cast<CompactTrieNode*>(mem);
    node->header_.count = 0;
    node->header_.slot_cap = static_cast<uint32_t>(slot_cap);
    node->header_.entry_cap = static_cast<uint32_t>(entry_cap);
    node->header_.tag = 0;
    node->header_.aux = 0;
    return node;
  }

  // A fresh node holding exactly one (partial, entry) pair. Note the
  // first key's slot is not slot 0: under the breadth-first permutation
  // sorted position 0 lives on the deepest level, so even a single key
  // materializes StoredSlots(1) slots (one node per k-ary level).
  static CompactTrieNode* MakeSingle(const Context& ctx, Partial partial,
                                     EntryT entry) {
    const int64_t stored =
        ctx.layout.StoredSlots(1, kary::Storage::kTruncated);
    CompactTrieNode* node = Allocate(ctx, stored, kInitialEntries);
    Partial* lin = node->Lin();
    for (int64_t s = 0; s < stored; ++s) lin[s] = kary::PadValue<Partial>();
    lin[ctx.layout.SortedToSlot(0)] = partial;
    node->Entries()[0] = entry;
    node->header_.count = 1;
    return node;
  }

  // Builds a node directly from n sorted distinct partial keys and their
  // entries (bulk loading); allocated exactly, no growth slack.
  static CompactTrieNode* BuildFromSorted(const Context& ctx,
                                          const Partial* partials,
                                          const EntryT* entries, int64_t n) {
    assert(n >= 1 && n <= ctx.domain_size);
    const int64_t stored =
        ctx.layout.StoredSlots(n, kary::Storage::kTruncated);
    CompactTrieNode* node = Allocate(ctx, stored, n);
    ctx.layout.Linearize(partials, n, node->Lin(), stored,
                         kary::PadValue<Partial>());
    std::memcpy(node->Entries(), entries,
                static_cast<size_t>(n) * sizeof(EntryT));
    node->header_.count = static_cast<uint32_t>(n);
    return node;
  }

  // Returns the block to the arena; the size comes from the header (the
  // arena's free lists are keyed by the Alloc-time byte count).
  static void Free(const Context& ctx, CompactTrieNode* node) {
    ctx.arena.Free(node,
                   BlockBytes(node->header_.slot_cap, node->header_.entry_cap));
  }

  // --- accessors ------------------------------------------------------------

  int64_t count() const { return header_.count; }

  Partial PartialAt(const Context& ctx, int64_t pos) const {
    assert(pos >= 0 && pos < count());
    return Lin()[ctx.layout.SortedToSlot(pos)];
  }

  EntryT& EntryAt(int64_t pos) {
    assert(pos >= 0 && pos < count());
    return Entries()[pos];
  }
  const EntryT& EntryAt(int64_t pos) const {
    assert(pos >= 0 && pos < count());
    return Entries()[pos];
  }

  // All entries in logical order (for traversal/teardown).
  const EntryT* entries() const { return Entries(); }

  // Owner-defined metadata, preserved across growth relocations. The
  // path-compressed trie stores the skip length in `tag` and the skipped
  // segments in `aux`.
  uint32_t tag() const { return header_.tag; }
  void set_tag(uint32_t t) { header_.tag = t; }
  uint64_t aux() const { return header_.aux; }
  void set_aux(uint64_t a) { header_.aux = a; }

  size_t MemoryBytes() const {
    return BlockBytes(header_.slot_cap, header_.entry_cap);
  }

  // --- search ---------------------------------------------------------------

  // Index of the first partial key > p (SIMD k-ary search, Algorithm 5).
  // A SearchCounters* `counters` counts the SIMD comparison steps.
  template <typename Counters = NoCounters>
  int64_t UpperBound(const Context& ctx, Partial p,
                     Counters counters = {}) const {
    const int64_t stored =
        ctx.layout.StoredSlots(count(), kary::Storage::kTruncated);
    return kary::UpperBoundBf<Partial, Eval, B, kBits>(Lin(), stored,
                                                       count(), p, counters);
  }

  // Exact-match index of p, or -1, with the paper's node fast paths. An
  // observer that keeps counts or spans (core/descent_observer.h) gets
  // the comparison steps in obs.cmps(): one scalar comparison on the
  // single-key fast path, none on the full-node one, the SIMD steps of
  // the k-ary search otherwise.
  template <typename Obs = NullObserver>
  int64_t FindPartial(const Context& ctx, Partial p, Obs&& obs = {}) const {
    constexpr bool kCounted = std::remove_reference_t<Obs>::kCounts ||
                              std::remove_reference_t<Obs>::kSpans;
    const int64_t n = count();
    if (n == 0) return -1;
    if (n == 1) {
      if constexpr (kCounted) ++obs.cmps()->scalar_comparisons;
      return Lin()[ctx.layout.SortedToSlot(0)] == p ? 0 : -1;
    }
    if (n == ctx.domain_size) return static_cast<int64_t>(p);  // full node
    const int64_t pos = UpperBound(ctx, p, CmpsIf<kCounted>(obs));
    if (pos == 0 || PartialAt(ctx, pos - 1) != p) return -1;
    return pos - 1;
  }

  // --- mutation (may relocate the node; callers must store the result) ----

  // Inserts (partial, entry) at logical position pos.
  static CompactTrieNode* Insert(CompactTrieNode* node, const Context& ctx,
                                 int64_t pos, Partial partial, EntryT entry) {
    const int64_t n = node->count();
    assert(pos >= 0 && pos <= n);
    const int64_t new_stored =
        ctx.layout.StoredSlots(n + 1, kary::Storage::kTruncated);
    if (new_stored > node->header_.slot_cap ||
        n + 1 > node->header_.entry_cap) {
      node = GrowFor(node, ctx, n + 1, new_stored);
    }
    // Entries: shift the logical suffix.
    EntryT* entries = node->Entries();
    std::memmove(entries + pos + 1, entries + pos,
                 static_cast<size_t>(n - pos) * sizeof(EntryT));
    entries[pos] = entry;
    // Keys: append fast path writes one slot, otherwise relinearize.
    Partial* lin = node->Lin();
    if (pos == n) {
      const int64_t old_stored =
          ctx.layout.StoredSlots(n, kary::Storage::kTruncated);
      for (int64_t s = old_stored; s < new_stored; ++s) {
        lin[s] = kary::PadValue<Partial>();
      }
      lin[ctx.layout.SortedToSlot(n)] = partial;
    } else {
      std::vector<Partial>& scratch = ctx.scratch;
      scratch.resize(static_cast<size_t>(n));
      ctx.layout.Delinearize(lin, n, scratch.data());
      scratch.insert(scratch.begin() + static_cast<ptrdiff_t>(pos), partial);
      ctx.layout.Linearize(scratch.data(), n + 1, lin, new_stored,
                           kary::PadValue<Partial>());
    }
    node->header_.count = static_cast<uint32_t>(n + 1);
    return node;
  }

  // Removes the logical position pos (no shrinking; blocks are reused).
  static void Remove(CompactTrieNode* node, const Context& ctx, int64_t pos) {
    const int64_t n = node->count();
    assert(pos >= 0 && pos < n);
    EntryT* entries = node->Entries();
    std::memmove(entries + pos, entries + pos + 1,
                 static_cast<size_t>(n - 1 - pos) * sizeof(EntryT));
    Partial* lin = node->Lin();
    if (pos == n - 1) {  // remove-max fast path
      lin[ctx.layout.SortedToSlot(pos)] = kary::PadValue<Partial>();
    } else {
      std::vector<Partial>& scratch = ctx.scratch;
      scratch.resize(static_cast<size_t>(n));
      ctx.layout.Delinearize(lin, n, scratch.data());
      scratch.erase(scratch.begin() + static_cast<ptrdiff_t>(pos));
      const int64_t stored =
          ctx.layout.StoredSlots(n - 1, kary::Storage::kTruncated);
      ctx.layout.Linearize(scratch.data(), n - 1, lin, stored,
                           kary::PadValue<Partial>());
    }
    node->header_.count = static_cast<uint32_t>(n - 1);
  }

 private:
  static constexpr int64_t kLanes = simd::LaneTraits<Partial, kBits>::kLanes;
  static constexpr int64_t kInitialEntries = 4;
  static constexpr size_t kAlign =
      alignof(EntryT) > 16 ? alignof(EntryT) : 16;
  static_assert(kAlign <= mem::kCacheLine,
                "ByteArena slab placement guarantees at most cache-line "
                "alignment");

  static size_t EntriesOffset(int64_t slot_cap) {
    const size_t raw = sizeof(Header) +
                       static_cast<size_t>(slot_cap) * sizeof(Partial);
    return (raw + alignof(EntryT) - 1) / alignof(EntryT) * alignof(EntryT);
  }

  static size_t BlockBytes(int64_t slot_cap, int64_t entry_cap) {
    return EntriesOffset(slot_cap) +
           static_cast<size_t>(entry_cap) * sizeof(EntryT);
  }

  Partial* Lin() {
    return reinterpret_cast<Partial*>(reinterpret_cast<char*>(this) +
                                      sizeof(Header));
  }
  const Partial* Lin() const {
    return reinterpret_cast<const Partial*>(
        reinterpret_cast<const char*>(this) + sizeof(Header));
  }
  EntryT* Entries() {
    return reinterpret_cast<EntryT*>(reinterpret_cast<char*>(this) +
                                     EntriesOffset(header_.slot_cap));
  }
  const EntryT* Entries() const {
    return reinterpret_cast<const EntryT*>(
        reinterpret_cast<const char*>(this) +
        EntriesOffset(header_.slot_cap));
  }

  // Relocates `node` into a block that fits new_count entries and
  // new_stored key slots, growing geometrically to amortize.
  static CompactTrieNode* GrowFor(CompactTrieNode* node, const Context& ctx,
                                  int64_t new_count, int64_t new_stored) {
    int64_t slot_cap = node->header_.slot_cap;
    while (slot_cap < new_stored) slot_cap *= 2;
    slot_cap = std::min(slot_cap, ctx.layout.slots());
    slot_cap = std::max(slot_cap, new_stored);
    int64_t entry_cap = node->header_.entry_cap;
    while (entry_cap < new_count) entry_cap *= 2;
    entry_cap = std::min(entry_cap, ctx.domain_size);
    entry_cap = std::max(entry_cap, new_count);

    CompactTrieNode* grown = Allocate(ctx, slot_cap, entry_cap);
    const int64_t n = node->count();
    grown->header_.count = static_cast<uint32_t>(n);
    grown->header_.tag = node->header_.tag;
    grown->header_.aux = node->header_.aux;
    const int64_t old_stored =
        ctx.layout.StoredSlots(n, kary::Storage::kTruncated);
    std::memcpy(grown->Lin(), node->Lin(),
                static_cast<size_t>(old_stored) * sizeof(Partial));
    // Pre-pad the newly materialized slot range so the append fast path
    // in Insert only needs to fill from old_stored onward.
    std::memcpy(grown->Entries(), node->Entries(),
                static_cast<size_t>(n) * sizeof(EntryT));
    Free(ctx, node);
    return grown;
  }

  Header header_;
  // Block payload follows the header.
};

}  // namespace simdtree::segtrie

#endif  // SIMDTREE_SEGTRIE_COMPACT_NODE_H_
