// Seg-Trie tests: model-based behaviour against std::map, the in-node fast
// paths, segment widths 4/8/16, lazy expansion (the optimized variant),
// level accounting, and the memory-reduction property.

#include "segtrie/segtrie.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"
#include "util/workload.h"

namespace simdtree::segtrie {
namespace {

using Trie64 = SegTrie<uint64_t, int64_t>;
using OptTrie64 = OptimizedSegTrie<uint64_t, int64_t>;

TEST(SegTrieTest, EmptyTrie) {
  Trie64 t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Contains(0));
  EXPECT_FALSE(t.Erase(0));
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(Trie64::max_levels(), 8);
  EXPECT_EQ(t.active_levels(), 8);  // plain trie always has r levels
}

TEST(SegTrieTest, SingleKeyLifecycle) {
  Trie64 t;
  EXPECT_TRUE(t.Insert(0xDEADBEEFCAFE1234ULL, 7));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.Find(0xDEADBEEFCAFE1234ULL).value(), 7);
  EXPECT_FALSE(t.Contains(0xDEADBEEFCAFE1235ULL));
  // Overwrite, not duplicate.
  EXPECT_FALSE(t.Insert(0xDEADBEEFCAFE1234ULL, 9));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Find(0xDEADBEEFCAFE1234ULL).value(), 9);
  EXPECT_TRUE(t.Erase(0xDEADBEEFCAFE1234ULL));
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.Validate());
}

TEST(SegTrieTest, TraversalTerminatesAboveLeafOnMissingSegment) {
  // Keys sharing no upper segment with the probe: the search must miss
  // without touching lower levels (we can only observe the result here,
  // but the probe exercises the early-termination path).
  Trie64 t;
  t.Insert(0x0101010101010101ULL, 1);
  EXPECT_FALSE(t.Contains(0x0201010101010101ULL));  // differs at level 0
  EXPECT_FALSE(t.Contains(0x0101010101010102ULL));  // differs at leaf
}

template <typename TrieT>
void RunTrieModel(TrieT& t, uint64_t seed, int ops, uint64_t key_mask) {
  std::map<uint64_t, int64_t> model;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const uint64_t k = rng.Next() & key_mask;
    if (rng.NextBounded(100) < 65) {
      const bool fresh_tree = t.Insert(k, op);
      const bool fresh_model = model.emplace(k, op).second;
      if (!fresh_model) model[k] = op;
      ASSERT_EQ(fresh_tree, fresh_model) << "op " << op;
    } else {
      ASSERT_EQ(t.Erase(k), model.erase(k) > 0) << "op " << op;
    }
    if (op % 256 == 0) {
      ASSERT_TRUE(t.Validate()) << "op " << op;
    }
  }
  ASSERT_TRUE(t.Validate());
  ASSERT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) {
    ASSERT_EQ(t.Find(k).value(), v);
  }
  // In-order traversal matches the model exactly.
  std::vector<std::pair<uint64_t, int64_t>> seen;
  t.ForEach([&](uint64_t k, const int64_t& v) { seen.emplace_back(k, v); });
  ASSERT_EQ(seen.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : seen) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST(SegTrieTest, RandomModelDenseLowBytes) {
  Trie64 t;
  RunTrieModel(t, 1, 6000, 0x3FF);  // keys in [0, 1024)
}

TEST(SegTrieTest, RandomModelSparseFullWidth) {
  Trie64 t;
  RunTrieModel(t, 2, 4000, ~0ULL);
}

TEST(SegTrieTest, RandomModelMiddleBytes) {
  Trie64 t;
  RunTrieModel(t, 3, 4000, 0x00FFFF0000ULL);
}

TEST(OptimizedSegTrieTest, RandomModelDense) {
  OptTrie64 t;
  RunTrieModel(t, 4, 6000, 0xFFF);
}

TEST(OptimizedSegTrieTest, RandomModelSparse) {
  OptTrie64 t;
  RunTrieModel(t, 5, 4000, ~0ULL);
}

TEST(SegTrieTest, SegmentWidth4Bits) {
  SegTrie<uint32_t, int32_t, 4> t;
  EXPECT_EQ(t.max_levels(), 8);
  std::map<uint32_t, int32_t> model;
  Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    const uint32_t k = static_cast<uint32_t>(rng.NextBounded(5000));
    t.Insert(k, i);
    model[k] = i;
  }
  ASSERT_TRUE(t.Validate());
  ASSERT_EQ(t.size(), model.size());
  for (const auto& [k, v] : model) ASSERT_EQ(t.Find(k).value(), v);
}

TEST(SegTrieTest, SegmentWidth16Bits) {
  SegTrie<uint32_t, int32_t, 16> t;
  EXPECT_EQ(t.max_levels(), 2);
  std::map<uint32_t, int32_t> model;
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const uint32_t k = static_cast<uint32_t>(rng.Next());
    t.Insert(k, i);
    model[k] = i;
  }
  ASSERT_TRUE(t.Validate());
  for (const auto& [k, v] : model) ASSERT_EQ(t.Find(k).value(), v);
}

TEST(SegTrieTest, SixteenBitKeys) {
  SegTrie<uint16_t, int32_t> t;
  EXPECT_EQ(t.max_levels(), 2);
  for (uint32_t k = 0; k < 65536; k += 3) {
    t.Insert(static_cast<uint16_t>(k), static_cast<int32_t>(k));
  }
  ASSERT_TRUE(t.Validate());
  for (uint32_t k = 0; k < 65536; ++k) {
    ASSERT_EQ(t.Contains(static_cast<uint16_t>(k)), k % 3 == 0) << k;
  }
}

TEST(SegTrieTest, FullNodeFastPathDirectIndex) {
  // Fill one leaf node completely (all 256 partial keys): lookups use the
  // hash-like direct index.
  Trie64 t;
  for (uint64_t k = 0; k < 256; ++k) t.Insert(k, static_cast<int64_t>(k * 2));
  ASSERT_TRUE(t.Validate());
  for (uint64_t k = 0; k < 256; ++k) {
    ASSERT_EQ(t.Find(k).value(), static_cast<int64_t>(k * 2));
  }
  // Now remove one and check the non-full path takes over seamlessly.
  ASSERT_TRUE(t.Erase(100));
  EXPECT_FALSE(t.Contains(100));
  EXPECT_TRUE(t.Contains(99));
  EXPECT_TRUE(t.Contains(101));
}

TEST(OptimizedSegTrieTest, LazyExpansionGrowsWithPrefixDivergence) {
  OptTrie64 t;
  t.Insert(5, 1);
  EXPECT_EQ(t.active_levels(), 1);  // consecutive small keys: one level
  t.Insert(250, 2);
  EXPECT_EQ(t.active_levels(), 1);
  t.Insert(256, 3);  // needs a second level
  EXPECT_EQ(t.active_levels(), 2);
  t.Insert(1ULL << 16, 4);  // third level
  EXPECT_EQ(t.active_levels(), 3);
  t.Insert(1ULL << 63, 5);  // full depth
  EXPECT_EQ(t.active_levels(), 8);
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.Find(5).value(), 1);
  EXPECT_EQ(t.Find(250).value(), 2);
  EXPECT_EQ(t.Find(256).value(), 3);
  EXPECT_EQ(t.Find(1ULL << 16).value(), 4);
  EXPECT_EQ(t.Find(1ULL << 63).value(), 5);
  EXPECT_EQ(t.size(), 5u);
}

TEST(OptimizedSegTrieTest, SharedNonZeroPrefix) {
  // All keys share a non-zero upper prefix; the omitted levels must carry
  // that prefix, and probes outside it must miss fast.
  OptTrie64 t;
  const uint64_t prefix = 0xABCD000000000000ULL;
  for (uint64_t i = 0; i < 500; ++i) t.Insert(prefix | i, static_cast<int64_t>(i));
  EXPECT_EQ(t.active_levels(), 2);  // 500 needs two low bytes
  ASSERT_TRUE(t.Validate());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(t.Find(prefix | i).value(), static_cast<int64_t>(i));
  }
  EXPECT_FALSE(t.Contains(0xABCE000000000000ULL | 5));
  EXPECT_FALSE(t.Contains(5));
}

TEST(OptimizedSegTrieTest, MatchesPlainTrieOnSameData) {
  Trie64 plain;
  OptTrie64 opt;
  Rng rng(8);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Next() & 0xFFFFFF;  // three active levels
    keys.push_back(k);
    plain.Insert(k, i);
    opt.Insert(k, i);
  }
  ASSERT_EQ(plain.size(), opt.size());
  EXPECT_LE(opt.active_levels(), 3);
  EXPECT_EQ(plain.active_levels(), 8);
  for (uint64_t k : keys) {
    ASSERT_EQ(plain.Find(k).value(), opt.Find(k).value());
  }
  // The optimized trie stores fewer nodes and less memory.
  EXPECT_LT(opt.Stats().nodes, plain.Stats().nodes);
  EXPECT_LT(opt.MemoryBytes(), plain.MemoryBytes());
}

TEST(OptimizedSegTrieTest, ConsecutiveKeysUseFewNodes) {
  // Paper Section 4: "the strength of a Seg-Trie arises from storing
  // consecutive keys like tuple ids".
  OptTrie64 t;
  constexpr uint64_t kN = 65536;
  for (uint64_t k = 0; k < kN; ++k) t.Insert(k, static_cast<int64_t>(k));
  ASSERT_TRUE(t.Validate());
  const TrieStats s = t.Stats();
  EXPECT_EQ(s.keys, kN);
  EXPECT_EQ(s.levels, 2);
  // 256 leaf nodes + 1 branching node.
  EXPECT_EQ(s.nodes, 257u);
}

TEST(SegTrieTest, WorstCaseSparseDistributionStillCorrect) {
  // Paper Section 4's worst storage case: keys evenly spread over the
  // domain leave lower nodes nearly empty.
  Trie64 t;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 2000; ++i) {
    keys.push_back(i * 0x87654321FEDCBA9ULL);  // spread across the domain
    t.Insert(keys.back(), static_cast<int64_t>(i));
  }
  ASSERT_TRUE(t.Validate());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(t.Find(keys[i]).value(), static_cast<int64_t>(i));
  }
}

TEST(SegTrieTest, EraseRemovesEmptyNodes) {
  Trie64 t;
  t.Insert(0x0102030405060708ULL, 1);
  t.Insert(0x0102030405060709ULL, 2);
  EXPECT_EQ(t.Stats().nodes, 8u);  // shared path, one extra leaf entry
  ASSERT_TRUE(t.Erase(0x0102030405060708ULL));
  EXPECT_EQ(t.Stats().nodes, 8u);  // leaf still holds the sibling
  ASSERT_TRUE(t.Erase(0x0102030405060709ULL));
  EXPECT_TRUE(t.empty());
  ASSERT_TRUE(t.Validate());
  // Re-insert after full drain works.
  EXPECT_TRUE(t.Insert(42, 42));
  EXPECT_EQ(t.Find(42).value(), 42);
}

TEST(SegTrieTest, MixedRadixWorkloadFillsExpectedLevels) {
  for (int depth = 1; depth <= 4; ++depth) {
    OptTrie64 t;
    const auto keys = MixedRadixKeys(depth, 6);
    for (size_t i = 0; i < keys.size(); ++i) {
      t.Insert(keys[i], static_cast<int64_t>(i));
    }
    ASSERT_TRUE(t.Validate());
    EXPECT_EQ(t.active_levels(), depth) << "depth " << depth;
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(t.Find(keys[i]).value(), static_cast<int64_t>(i));
    }
  }
}

TEST(SegTrieTest, ScalarBackendMatchesSse) {
  SegTrie<uint64_t, int64_t, 8, simd::PopcountEval, simd::Backend::kScalar>
      scalar_trie;
  RunTrieModel(scalar_trie, 11, 3000, 0xFFFFF);
}

}  // namespace
}  // namespace simdtree::segtrie
