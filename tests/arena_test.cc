// Unit tests for the arena memory subsystem (mem/arena.h) and its
// integration with the tree backends: slab growth, free-list reuse after
// insert/erase churn, 32-bit reference exhaustion, O(1) Clear via slab
// reset (zero per-node frees on the arena path), and serialize →
// deserialize into a fresh arena.
//
// The pools sample SIMDTREE_DISABLE_ARENA at construction, so the
// arena-mode-specific assertions guard on arena_mode() — the whole
// binary stays meaningful when CI runs it with the arena disabled.

#include "mem/arena.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <new>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "core/olc.h"
#include "core/serialize.h"
#include "gtest/gtest.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"
#include "util/workload.h"

namespace simdtree {
namespace {

using mem::ArenaStats;
using mem::NodePool;

TEST(NodePoolTest, GrowsAcrossMultipleSlabs) {
  NodePool pool(/*block_bytes=*/256, /*slab_bytes=*/4096);
  std::vector<uint32_t> slots;
  std::vector<void*> blocks;
  for (int i = 0; i < 200; ++i) {
    uint32_t slot = 0;
    void* p = pool.Alloc(&slot);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % mem::kCacheLine, 0u);
    EXPECT_EQ(pool.Decode(slot), p);
    slots.push_back(slot);
    blocks.push_back(p);
  }
  EXPECT_EQ(std::set<void*>(blocks.begin(), blocks.end()).size(),
            blocks.size());
  const ArenaStats s = pool.Stats();
  EXPECT_EQ(s.allocs, 200u);
  EXPECT_EQ(s.live_blocks, 200u);
  EXPECT_GE(s.used_bytes, 200u * 256u);
  EXPECT_LE(s.used_bytes, s.reserved_bytes);
  if (s.arena_mode) {
    // 200 x 256B blocks cannot fit one 4 KiB slab: growth must have
    // happened, and slots must still decode across the slab boundary.
    EXPECT_GT(s.slab_count, 1u);
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(pool.Decode(slots[i]), blocks[i]);
  }
}

TEST(NodePoolTest, FreeListReusesSlots) {
  NodePool pool(/*block_bytes=*/128, /*slab_bytes=*/4096);
  std::vector<uint32_t> slots(64);
  for (auto& slot : slots) ASSERT_NE(pool.Alloc(&slot), nullptr);
  const size_t reserved_before = pool.Stats().reserved_bytes;
  for (int i = 0; i < 16; ++i) {
    pool.Free(pool.Decode(slots[static_cast<size_t>(i)]),
              slots[static_cast<size_t>(i)]);
  }
  if (pool.arena_mode()) {
    EXPECT_EQ(pool.Stats().free_list_blocks, 16u);
  }
  EXPECT_EQ(pool.Stats().live_blocks, 48u);
  // Churn reuse: the next allocations must come from the free list (no
  // new slab, same reserved bytes in arena mode).
  std::set<uint32_t> freed(slots.begin(), slots.begin() + 16);
  for (int i = 0; i < 16; ++i) {
    uint32_t slot = 0;
    ASSERT_NE(pool.Alloc(&slot), nullptr);
    EXPECT_EQ(freed.count(slot), 1u) << "slot " << slot << " not reused";
  }
  EXPECT_EQ(pool.Stats().free_list_blocks, 0u);
  EXPECT_EQ(pool.Stats().live_blocks, 64u);
  if (pool.arena_mode()) {
    EXPECT_EQ(pool.Stats().reserved_bytes, reserved_before);
  }
}

TEST(NodePoolTest, SlotSpaceExhaustionReturnsNull) {
  // 4 slot bits: at most 16 encodable blocks (fewer in arena mode, where
  // the second slab's base slot already falls outside the cap).
  NodePool pool(/*block_bytes=*/64, /*slab_bytes=*/4096,
                /*max_slot_bits=*/4);
  int got = 0;
  for (int i = 0; i < 64; ++i) {
    uint32_t slot = 0;
    if (pool.Alloc(&slot) == nullptr) break;
    EXPECT_LT(slot, 16u);
    ++got;
  }
  EXPECT_GT(got, 0);
  EXPECT_LE(got, 16);
  uint32_t slot = 0;
  EXPECT_EQ(pool.Alloc(&slot), nullptr);  // stays exhausted
}

TEST(NodePoolTest, ResetReleasesSlabsAndRestartsGrowth) {
  NodePool pool(/*block_bytes=*/256, /*slab_bytes=*/4096);
  uint32_t slot = 0;
  for (int i = 0; i < 100; ++i) ASSERT_NE(pool.Alloc(&slot), nullptr);
  pool.Reset();
  const ArenaStats s = pool.Stats();
  EXPECT_EQ(s.live_blocks, 0u);
  EXPECT_EQ(s.slab_count, 0u);
  EXPECT_EQ(s.reserved_bytes, 0u);
  EXPECT_EQ(s.resets, 1u);
  ASSERT_NE(pool.Alloc(&slot), nullptr);  // pool is reusable after Reset
  EXPECT_EQ(pool.Stats().live_blocks, 1u);
}

// 4,032 bytes is the SegTree<uint64_t, uint64_t> leaf block, which does
// not divide 2 MiB. The ramp-up slabs hold exactly their blocks; every
// full-size slab holds floor(2 MiB / 4032) = 520 blocks in one 2 MiB-
// aligned extent, the unit transparent hugepages back. Both Resets run
// under a reader pin, so the slabs are quarantined: Purge releases the
// first set and destruction the second, each with the alignment it was
// allocated with (which the sanitizer build checks).
TEST(NodePoolTest, FullSizeSlabsAreAlignedHugepageExtents) {
  constexpr size_t kBlock = 4032;
  constexpr size_t kRamp[] = {8, 32, 128, 512};
  constexpr size_t kRampBlocks = 8 + 32 + 128 + 512;
  constexpr size_t kFullBlocks = 520;
  constexpr size_t kFullSlabs = 3;
  NodePool pool(kBlock, mem::kDefaultSlabBytes, /*max_slot_bits=*/31);
  olc::EpochManager& em = olc::EpochManager::Global();
  ASSERT_EQ(pool.EnableDeferredReclamation(&em), pool.arena_mode());
  const auto fill_and_check = [&] {
    std::vector<size_t> blocks;  // per slab, in allocation order
    std::vector<uintptr_t> bases;
    size_t last_slab = ~size_t{0};
    for (size_t i = 0; i < kRampBlocks + kFullSlabs * kFullBlocks; ++i) {
      uint32_t slot = 0;
      void* p = pool.Alloc(&slot);
      ASSERT_NE(p, nullptr);
      if (pool.SlabOfSlot(slot) != last_slab) {
        last_slab = pool.SlabOfSlot(slot);
        blocks.push_back(0);
        bases.push_back(reinterpret_cast<uintptr_t>(p));
      }
      ++blocks.back();
    }
    if (!pool.arena_mode()) return;  // heap mode: one block per slab
    ASSERT_EQ(blocks.size(), std::size(kRamp) + kFullSlabs);
    for (size_t i = 0; i < std::size(kRamp); ++i) {
      EXPECT_EQ(blocks[i], kRamp[i]) << "ramp-up slab " << i;
    }
    for (size_t i = std::size(kRamp); i < blocks.size(); ++i) {
      EXPECT_EQ(blocks[i], kFullBlocks) << "slab " << i;
      EXPECT_EQ(bases[i] % mem::kHugePageBytes, 0u) << "slab " << i;
    }
    // reserved_bytes counts blocks, not the extent tails past them.
    EXPECT_EQ(pool.Stats().reserved_bytes,
              (kRampBlocks + kFullSlabs * kFullBlocks) * kBlock);
  };
  const size_t slabs = pool.arena_mode() ? std::size(kRamp) + kFullSlabs : 0;

  fill_and_check();
  {
    olc::EpochGuard reader;
    pool.Reset();
    EXPECT_EQ(pool.Stats().deferred_slabs, slabs);
  }
  em.TryAdvance();
  pool.Purge();
  EXPECT_EQ(pool.Stats().deferred_slabs, 0u);

  fill_and_check();  // the ramp restarts after a Reset
  olc::EpochGuard reader;
  pool.Reset();
  EXPECT_EQ(pool.Stats().deferred_slabs, slabs);
}  // ~EpochGuard, then ~NodePool releases the quarantined slabs

TEST(ByteArenaTest, SizeClassFreeListReuse) {
  mem::ByteArena arena(/*slab_bytes=*/4096);
  void* a = arena.Alloc(100, 16);
  ASSERT_NE(a, nullptr);
  arena.Free(a, 100, 16);
  if (arena.arena_mode()) {
    EXPECT_EQ(arena.Stats().free_list_blocks, 1u);
    // Same size class (128B) must requeue the freed block exactly.
    void* b = arena.Alloc(120, 16);
    EXPECT_EQ(b, a);
    arena.Free(b, 120, 16);
  }
  EXPECT_EQ(arena.Stats().live_blocks, 0u);
  EXPECT_EQ(arena.Stats().allocs, arena.Stats().frees);
}

// --- tree integration -------------------------------------------------------

using Tree = btree::BPlusTree<uint64_t, uint64_t>;

Tree::Config SmallArenaConfig(int64_t capacity, uint32_t max_slot_bits = 31) {
  Tree::Config config = Tree::MakeConfig(capacity);
  config.arena.slab_bytes = 4096;  // force multi-slab growth cheaply
  config.arena.max_slot_bits = max_slot_bits;
  return config;
}

TEST(ArenaTreeTest, TreeGrowsAcrossSlabsAndValidates) {
  Tree tree(SmallArenaConfig(16));
  Rng rng(41);
  const std::vector<uint64_t> keys = UniformDistinctKeys<uint64_t>(5000, rng);
  for (const uint64_t k : keys) tree.Insert(k, k * 3);
  ASSERT_TRUE(tree.Validate());
  const ArenaStats s = tree.MemStats();
  EXPECT_GT(s.live_blocks, 300u);  // ~5000 keys / 16-key leaves
  EXPECT_GT(s.used_bytes, 0u);
  EXPECT_LE(s.used_bytes, s.reserved_bytes);
  if (s.arena_mode) {
    EXPECT_GT(s.slab_count, 2u);
  }
  for (const uint64_t k : keys) {
    auto v = tree.Find(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, k * 3);
  }
}

TEST(ArenaTreeTest, EraseInsertChurnReusesFreedNodes) {
  Tree tree(SmallArenaConfig(16));
  Rng rng(43);
  const std::vector<uint64_t> keys = UniformDistinctKeys<uint64_t>(4000, rng);
  for (const uint64_t k : keys) tree.Insert(k, k);
  const size_t reserved_after_build = tree.MemStats().reserved_bytes;
  // Erase half (merges free nodes onto the pool free lists), reinsert.
  for (size_t i = 0; i < keys.size(); i += 2) ASSERT_TRUE(tree.Erase(keys[i]));
  const ArenaStats mid = tree.MemStats();
  EXPECT_GT(mid.frees, 0u);
  if (mid.arena_mode) {
    EXPECT_GT(mid.free_list_blocks, 0u);
  }
  for (size_t i = 0; i < keys.size(); i += 2) {
    tree.Insert(keys[i], keys[i]);
  }
  ASSERT_TRUE(tree.Validate());
  EXPECT_EQ(tree.size(), keys.size());
  if (mid.arena_mode) {
    // The reinserted nodes came from the free lists, not new slabs.
    EXPECT_EQ(tree.MemStats().reserved_bytes, reserved_after_build);
  }
}

// Satellite of the O(1)-teardown contract: Clear() on the arena path
// releases slabs wholesale and performs ZERO per-node frees.
TEST(ArenaTreeTest, ClearIsSlabResetWithZeroPerNodeFrees) {
  Tree tree(SmallArenaConfig(16));
  for (uint64_t k = 0; k < 3000; ++k) tree.Insert(k, k);
  const ArenaStats before = tree.MemStats();
  EXPECT_GT(before.live_blocks, 0u);
  tree.Clear();
  const ArenaStats after = tree.MemStats();
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(after.live_blocks, 0u);
  // Both pools (leaf + inner) reset once each.
  EXPECT_EQ(after.resets, before.resets + 2);
  if (after.arena_mode) {
    EXPECT_EQ(after.frees, before.frees) << "Clear must not free per node";
    EXPECT_EQ(after.slab_count, 0u);
  }
  // The tree is fully usable after the wholesale release.
  for (uint64_t k = 0; k < 100; ++k) tree.Insert(k, k + 1);
  ASSERT_TRUE(tree.Validate());
  EXPECT_EQ(*tree.Find(7), 8u);
}

TEST(ArenaTreeTest, RefExhaustionThrowsBadAlloc) {
  // 6 slot bits: the node pools run out of encodable references long
  // before 100k keys; Insert must surface that as std::bad_alloc and the
  // already-inserted prefix must stay intact.
  Tree tree(SmallArenaConfig(8, /*max_slot_bits=*/6));
  bool threw = false;
  uint64_t inserted = 0;
  for (uint64_t k = 0; k < 100000; ++k) {
    try {
      tree.Insert(k, k);
      ++inserted;
    } catch (const std::bad_alloc&) {
      threw = true;
      break;
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_GT(inserted, 0u);
  for (uint64_t k = 0; k + 8 < inserted; ++k) {
    ASSERT_TRUE(tree.Contains(k)) << k;
  }
}

TEST(ArenaTreeTest, SerializeRoundTripIntoFreshArena) {
  using Seg = segtree::SegTree<uint32_t, uint64_t>;
  Rng rng(47);
  std::vector<uint32_t> keys = UniformDistinctKeys<uint32_t>(20000, rng);
  std::sort(keys.begin(), keys.end());
  std::vector<uint64_t> values;
  values.reserve(keys.size());
  for (const uint32_t k : keys) values.push_back(uint64_t{k} * 7);
  Seg original = Seg::BulkLoad(keys.data(), values.data(), keys.size());

  const std::vector<uint8_t> blob =
      io::Serialize<uint32_t, uint64_t>(original, 64);
  auto loaded = io::LoadTree<Seg>(blob.data(), blob.size());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->Validate());
  EXPECT_EQ(loaded->size(), original.size());
  // The rebuilt tree lives entirely in its own fresh arena: the blob
  // carries logical content only, never slots or slab addresses.
  const ArenaStats s = loaded->MemStats();
  EXPECT_GT(s.allocs, 0u);
  EXPECT_EQ(s.live_blocks, s.allocs - s.frees);
  for (size_t i = 0; i < keys.size(); i += 37) {
    auto v = loaded->Find(keys[i]);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, uint64_t{keys[i]} * 7);
  }
}

TEST(ArenaTrieTest, TrieClearResetsByteArena) {
  segtrie::OptimizedSegTrie<uint64_t, uint64_t> trie;
  for (uint64_t k = 0; k < 20000; ++k) ASSERT_TRUE(trie.Insert(k, k));
  const ArenaStats before = trie.MemStats();
  EXPECT_GT(before.allocs, 0u);
  if (before.arena_mode) {
    EXPECT_GT(before.slab_count, 0u);
  }
  trie.Clear();
  EXPECT_EQ(trie.size(), 0u);
  const ArenaStats after = trie.MemStats();
  if (after.arena_mode) {
    EXPECT_GT(after.resets, before.resets);
    EXPECT_EQ(after.frees, before.frees) << "Clear must not free per node";
  }
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(trie.Insert(k, k * 2));
  ASSERT_TRUE(trie.Validate());
  EXPECT_EQ(*trie.Find(11), 22u);
}

}  // namespace
}  // namespace simdtree
