// Complexity tests: the instrumented searches must match the paper's
// analytical claims exactly —
//   * k-ary search: exactly r = ceil(log_k(n+1)) SIMD comparisons,
//   * B+-Tree: one node per level on the descent,
//   * Seg-Trie: at most 2 SIMD comparisons per node for 8-bit segments
//     (ceil(log17 256) = 2), fixed level count, early termination above
//     leaf level on a missing segment, and zero SIMD comparisons through
//     the single-key / full-node fast paths.

#include <cstdint>
#include <vector>

#include "btree/btree.h"
#include "gtest/gtest.h"
#include "kary/kary_search.h"
#include "kary/linearize.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/workload.h"

namespace simdtree {
namespace {

TEST(ComplexityTest, KarySearchUsesExactlyRComparisons) {
  using T = int32_t;  // k = 5
  Rng rng(1);
  for (int64_t n : {int64_t{1}, int64_t{4}, int64_t{5}, int64_t{24},
                    int64_t{25}, int64_t{124}, int64_t{624}, int64_t{625},
                    int64_t{3124}}) {
    std::vector<T> keys = UniformDistinctKeys<T>(static_cast<size_t>(n), rng);
    const kary::KaryShape shape = kary::KaryShape::For(5, n);
    const kary::KaryLayout layout(shape, kary::Layout::kBreadthFirst);
    const int64_t stored =
        layout.StoredSlots(n, kary::Storage::kTruncated);
    std::vector<T> lin(static_cast<size_t>(stored));
    layout.Linearize(keys.data(), n, lin.data(), stored,
                     kary::PadValue<T>());
    for (int probe = 0; probe < 50; ++probe) {
      SearchCounters c;
      kary::UpperBoundBf<T>(lin.data(), stored, n,
                            static_cast<T>(rng.Next()), &c);
      // At most r comparisons; fewer only when the descent leaves the
      // truncated prefix (all-padding subtree).
      ASSERT_LE(c.simd_comparisons, static_cast<uint64_t>(shape.r))
          << "n=" << n;
      ASSERT_GE(c.simd_comparisons, 1u);
    }
    // A probe below the minimum key always walks all r levels.
    SearchCounters c;
    kary::UpperBoundBf<T>(lin.data(), stored, n,
                          std::numeric_limits<T>::min(), &c);
    ASSERT_EQ(c.simd_comparisons, static_cast<uint64_t>(shape.r));
  }
}

TEST(ComplexityTest, BPlusTreeVisitsOneNodePerLevel) {
  btree::BPlusTree<int64_t, int64_t> tree(16);
  for (int64_t i = 0; i < 20000; ++i) tree.Insert(i * 2, i);
  const int h = tree.height();
  ASSERT_GE(h, 3);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    SearchCounters c;
    const int64_t key = static_cast<int64_t>(rng.NextBounded(20000)) * 2;
    ASSERT_TRUE(tree.FindCounted(key, &c).has_value());
    // Exactly one node per level, +1 only for the prev-leaf boundary hop.
    ASSERT_GE(c.nodes_visited, static_cast<uint64_t>(h));
    ASSERT_LE(c.nodes_visited, static_cast<uint64_t>(h) + 1);
  }
}

TEST(ComplexityTest, SegTreeVisitsOneNodePerLevelToo) {
  segtree::SegTree<int64_t, int64_t> tree(16);
  for (int64_t i = 0; i < 20000; ++i) tree.Insert(i * 2, i);
  const int h = tree.height();
  SearchCounters c;
  ASSERT_TRUE(tree.FindCounted(20000, &c).has_value());
  ASSERT_GE(c.nodes_visited, static_cast<uint64_t>(h));
  ASSERT_LE(c.nodes_visited, static_cast<uint64_t>(h) + 1);
}

TEST(ComplexityTest, TrieUsesAtMostTwoSimdComparisonsPerNode) {
  // Nodes with 2..255 partial keys need 1-2 SIMD comparisons (r <= 2 for
  // the 8-bit domain at k = 17); the paper's Section 4 bound.
  segtrie::SegTrie<uint64_t, uint64_t> trie;
  Rng rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(rng.Next() & 0xFFFFFF);
    trie.Insert(keys.back(), 1);
  }
  for (int i = 0; i < 500; ++i) {
    SearchCounters c;
    trie.FindCounted(keys[rng.NextBounded(keys.size())], &c);
    ASSERT_LE(c.nodes_visited, 8u);
    // <= 2 SIMD comparisons per visited node.
    ASSERT_LE(c.simd_comparisons, 2 * c.nodes_visited);
  }
}

TEST(ComplexityTest, TrieFullTraversalBoundSixteenComparisons) {
  // Paper Section 4: "A full traversal of a Seg-Trie with k = 17 from the
  // root to the leaves takes at most ceil(log17 2^64) = 16 comparison
  // operations."
  segtrie::SegTrie<uint64_t, uint64_t> trie;
  Rng rng(4);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 50000; ++i) {
    keys.push_back(rng.Next());  // full-width keys: all 8 levels active
    trie.Insert(keys.back(), 1);
  }
  uint64_t max_cmp = 0;
  for (int i = 0; i < 2000; ++i) {
    SearchCounters c;
    ASSERT_TRUE(
        trie.FindCounted(keys[rng.NextBounded(keys.size())], &c).has_value());
    max_cmp = std::max(max_cmp, c.simd_comparisons);
  }
  EXPECT_LE(max_cmp, 16u);
}

TEST(ComplexityTest, TrieTerminatesAboveLeafOnMissingSegment) {
  // Paper Section 4: "a trie may terminate the traversal above leaf level
  // if a partial key is not present on the current level" — the advantage
  // over the Seg-Tree, which always descends to a leaf.
  segtrie::SegTrie<uint64_t, uint64_t> trie;
  trie.Insert(0x0101010101010101ULL, 1);
  trie.Insert(0x0101010101010102ULL, 2);

  SearchCounters c;
  // Differs at the first segment: one node visited, done.
  EXPECT_FALSE(trie.FindCounted(0x0201010101010101ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 1u);

  c.Reset();
  // Differs at the fourth segment: four nodes visited.
  EXPECT_FALSE(trie.FindCounted(0x0101010201010101ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 4u);

  c.Reset();
  // Full match descends all 8 levels.
  EXPECT_TRUE(trie.FindCounted(0x0101010101010102ULL, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 8u);
}

TEST(ComplexityTest, TrieFastPathsCostNoSimdComparisons) {
  // Single-key nodes: direct compare, no SIMD.
  {
    segtrie::SegTrie<uint64_t, uint64_t> trie;
    trie.Insert(42, 1);  // all 8 nodes hold exactly one partial key
    SearchCounters c;
    EXPECT_TRUE(trie.FindCounted(42, &c).has_value());
    EXPECT_EQ(c.nodes_visited, 8u);
    EXPECT_EQ(c.simd_comparisons, 0u);
    EXPECT_EQ(c.scalar_comparisons, 8u);
  }
  // Full nodes: hash-like direct index, no SIMD and no scalar compare.
  {
    segtrie::OptimizedSegTrie<uint64_t, uint64_t> trie;
    for (uint64_t k = 0; k < 256; ++k) trie.Insert(k, k);
    ASSERT_EQ(trie.active_levels(), 1);
    SearchCounters c;
    EXPECT_TRUE(trie.FindCounted(99, &c).has_value());
    EXPECT_EQ(c.nodes_visited, 1u);
    EXPECT_EQ(c.simd_comparisons, 0u);
    EXPECT_EQ(c.scalar_comparisons, 0u);
  }
}

TEST(ComplexityTest, OptimizedTrieVisitsOnlyActiveLevels) {
  segtrie::OptimizedSegTrie<uint64_t, uint64_t> trie;
  for (uint64_t k = 0; k < 100000; ++k) trie.Insert(k, k);
  ASSERT_EQ(trie.active_levels(), 3);
  SearchCounters c;
  EXPECT_TRUE(trie.FindCounted(54321, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 3u);  // vs 8 for the plain trie

  segtrie::SegTrie<uint64_t, uint64_t> plain;
  for (uint64_t k = 0; k < 100000; ++k) plain.Insert(k, k);
  c.Reset();
  EXPECT_TRUE(plain.FindCounted(54321, &c).has_value());
  EXPECT_EQ(c.nodes_visited, 8u);
}

}  // namespace
}  // namespace simdtree
