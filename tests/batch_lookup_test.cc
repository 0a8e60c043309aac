// Differential coverage for the batched-lookup subsystem: every batch
// API must agree element-for-element with its single-query counterpart
// (or the std:: oracle) across layouts (BF/DF), bitmask-evaluation
// policies, backends, register widths, batch sizes that exercise partial
// and multi-group pipelines (1/7/16/1000), duplicate keys, and misses.
// The batch layer changes the memory schedule, never the answer.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "btree/btree.h"
#include "core/batch.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "kary/batch_search.h"
#include "kary/kary_array.h"
#include "kary/linearize.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "simd/bitmask_eval.h"
#include "simd/simd256.h"
#include "util/counters.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using kary::KaryArray;
using kary::Layout;
using kary::Storage;
using simd::Backend;

constexpr size_t kBatchSizes[] = {1, 7, 16, 1000};

// Probes covering hits, misses, neighbours of keys, and type extremes.
template <typename T>
std::vector<T> MakeProbes(const std::vector<T>& keys, size_t count,
                          Rng& rng) {
  std::vector<T> probes = {std::numeric_limits<T>::min(),
                           std::numeric_limits<T>::max(), T{0}};
  for (T k : keys) {
    probes.push_back(k);
    if (k != std::numeric_limits<T>::min())
      probes.push_back(static_cast<T>(k - 1));
    if (k != std::numeric_limits<T>::max())
      probes.push_back(static_cast<T>(k + 1));
  }
  while (probes.size() < count) probes.push_back(static_cast<T>(rng.Next()));
  probes.resize(count);
  return probes;
}

// --- KaryArray vs std::upper_bound / std::lower_bound ---------------------

template <typename T, typename Eval, Backend B, int kBits>
void CheckKaryArray(const std::vector<T>& keys, Layout layout,
                    Storage storage) {
  KaryArray<T, kBits> arr(keys, layout, storage);
  Rng rng(99);
  for (size_t batch : kBatchSizes) {
    const auto probes = MakeProbes<T>(keys, batch, rng);
    std::vector<int64_t> ub(batch), lb(batch);
    arr.template UpperBoundBatch<Eval, B>(probes.data(), batch, ub.data());
    arr.template LowerBoundBatch<Eval, B>(probes.data(), batch, lb.data());
    for (size_t i = 0; i < batch; ++i) {
      const int64_t want_ub =
          std::upper_bound(keys.begin(), keys.end(), probes[i]) -
          keys.begin();
      const int64_t want_lb =
          std::lower_bound(keys.begin(), keys.end(), probes[i]) -
          keys.begin();
      ASSERT_EQ(ub[i], want_ub)
          << "upper batch=" << batch << " i=" << i << " eval=" << Eval::kName
          << " v=" << static_cast<int64_t>(probes[i]);
      ASSERT_EQ(lb[i], want_lb)
          << "lower batch=" << batch << " i=" << i << " eval=" << Eval::kName
          << " v=" << static_cast<int64_t>(probes[i]);
    }
    // Non-default group sizes, including the degenerate group of one.
    std::vector<int64_t> ub_g(batch);
    for (int group : {1, 3, kMaxBatchGroup}) {
      arr.template UpperBoundBatch<Eval, B>(probes.data(), batch,
                                            ub_g.data(), group);
      for (size_t i = 0; i < batch; ++i) {
        ASSERT_EQ(ub_g[i], ub[i]) << "group=" << group << " i=" << i;
      }
    }
  }
}

template <typename T, typename Eval, Backend B, int kBits>
void CheckKaryArrayAllShapes() {
  Rng rng(2026);
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{17}, int64_t{100},
                    int64_t{1000}}) {
    std::vector<T> keys(static_cast<size_t>(n));
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    std::sort(keys.begin(), keys.end());
    CheckKaryArray<T, Eval, B, kBits>(keys, Layout::kBreadthFirst,
                                      Storage::kTruncated);
    CheckKaryArray<T, Eval, B, kBits>(keys, Layout::kBreadthFirst,
                                      Storage::kPerfect);
    CheckKaryArray<T, Eval, B, kBits>(keys, Layout::kDepthFirst,
                                      Storage::kPerfect);
    // Heavy duplication: few distinct values.
    for (auto& k : keys) k = static_cast<T>(rng.NextBounded(5) * 7);
    std::sort(keys.begin(), keys.end());
    CheckKaryArray<T, Eval, B, kBits>(keys, Layout::kBreadthFirst,
                                      Storage::kTruncated);
    CheckKaryArray<T, Eval, B, kBits>(keys, Layout::kDepthFirst,
                                      Storage::kPerfect);
  }
}

TEST(BatchKaryArrayTest, AllEvalPoliciesSse128) {
  if constexpr (simd::kHaveSse) {
    CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, Backend::kSse,
                            128>();
    CheckKaryArrayAllShapes<uint32_t, simd::BitShiftEval, Backend::kSse,
                            128>();
    CheckKaryArrayAllShapes<uint32_t, simd::SwitchCaseEval, Backend::kSse,
                            128>();
  }
}

TEST(BatchKaryArrayTest, AllEvalPoliciesScalar128) {
  CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, Backend::kScalar,
                          128>();
  CheckKaryArrayAllShapes<uint32_t, simd::BitShiftEval, Backend::kScalar,
                          128>();
  CheckKaryArrayAllShapes<uint32_t, simd::SwitchCaseEval, Backend::kScalar,
                          128>();
}

TEST(BatchKaryArrayTest, OtherKeyWidthsDefaultBackend) {
  CheckKaryArrayAllShapes<uint8_t, simd::PopcountEval, simd::kDefaultBackend,
                          128>();
  CheckKaryArrayAllShapes<int16_t, simd::PopcountEval, simd::kDefaultBackend,
                          128>();
  CheckKaryArrayAllShapes<int64_t, simd::PopcountEval, simd::kDefaultBackend,
                          128>();
  CheckKaryArrayAllShapes<uint64_t, simd::SwitchCaseEval,
                          simd::kDefaultBackend, 128>();
}

TEST(BatchKaryArrayTest, Width256) {
  CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, Backend::kScalar,
                          256>();
#if defined(__AVX2__)
  CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, Backend::kSse,
                          256>();
  CheckKaryArrayAllShapes<uint16_t, simd::BitShiftEval, Backend::kSse,
                          256>();
#endif
  // Runtime dispatch at 256: native when this host+binary carry AVX2
  // kernels, the scalar image otherwise — the answers are identical
  // either way, so this runs green everywhere.
  CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, simd::kDefaultBackend,
                          256>();
}

TEST(BatchKaryArrayTest, Width512) {
  // The scalar 512-bit image (k = 65/33/17/9) runs on any hardware.
  CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, Backend::kScalar,
                          512>();
  CheckKaryArrayAllShapes<int16_t, simd::SwitchCaseEval, Backend::kScalar,
                          512>();
  // Dispatch routing: native EVEX kernels on AVX-512 hosts, scalar
  // image elsewhere.
  CheckKaryArrayAllShapes<uint32_t, simd::PopcountEval, simd::kDefaultBackend,
                          512>();
  CheckKaryArrayAllShapes<uint64_t, simd::BitShiftEval, simd::kDefaultBackend,
                          512>();
}

// --- B+-Tree / Seg-Tree FindBatch & LowerBoundBatch -----------------------

// `tree` built over (keys[i], values[i]); checks batch results against
// the single-query calls for every batch size.
template <typename TreeT, typename Key>
void CheckTreeBatches(const TreeT& tree, const std::vector<Key>& keys) {
  Rng rng(5);
  for (size_t batch : kBatchSizes) {
    const auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<const uint64_t*> found(batch);
    std::vector<typename TreeT::ConstIterator> lbs(batch);
    tree.FindBatch(probes.data(), batch, found.data());
    tree.LowerBoundBatch(probes.data(), batch, lbs.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = tree.Find(probes[i]);
      ASSERT_EQ(found[i] != nullptr, want.has_value())
          << "batch=" << batch << " i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*found[i], *want) << "batch=" << batch << " i=" << i;
      }
      const auto want_it = tree.LowerBoundIter(probes[i]);
      ASSERT_EQ(lbs[i].valid(), want_it.valid());
      if (want_it.valid()) {
        ASSERT_EQ(lbs[i].key(), want_it.key());
        ASSERT_EQ(lbs[i].value(), want_it.value());
      }
    }
    // Explicit group sizes.
    std::vector<const uint64_t*> found_g(batch);
    for (int group : {1, 5, kMaxBatchGroup}) {
      tree.FindBatch(probes.data(), batch, found_g.data(), group);
      for (size_t i = 0; i < batch; ++i) ASSERT_EQ(found_g[i], found[i]);
    }
  }
}

template <typename TreeT>
void CheckTreeAllShapes() {
  using Key = typename TreeT::KeyType;
  // Empty tree: everything misses.
  {
    TreeT tree(16);
    const Key probes[3] = {Key{0}, Key{1}, Key{42}};
    const uint64_t* out[3];
    typename TreeT::ConstIterator its[3];
    tree.FindBatch(probes, 3, out);
    tree.LowerBoundBatch(probes, 3, its);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(out[i], nullptr);
      EXPECT_FALSE(its[i].valid());
    }
  }
  // Incrementally built with duplicates (multimap), small fanout for
  // depth; then a bulk-loaded larger tree.
  Rng rng(11);
  {
    TreeT tree(8);
    std::vector<Key> keys;
    for (int i = 0; i < 3000; ++i) {
      const Key k = static_cast<Key>(rng.NextBounded(1200));
      keys.push_back(k);
      tree.Insert(k, static_cast<uint64_t>(i));
    }
    std::sort(keys.begin(), keys.end());
    CheckTreeBatches(tree, keys);
  }
  {
    std::vector<Key> keys(20000);
    for (auto& k : keys) k = static_cast<Key>(rng.Next());
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < values.size(); ++i) values[i] = i;
    TreeT tree =
        TreeT::BulkLoad(keys.data(), values.data(), keys.size());
    CheckTreeBatches(tree, keys);
  }
}

TEST(BatchTreeTest, PlainBPlusTreeBinary) {
  CheckTreeAllShapes<btree::BPlusTree<uint32_t, uint64_t>>();
}

TEST(BatchTreeTest, PlainBPlusTreeSequential) {
  CheckTreeAllShapes<
      btree::BPlusTree<uint32_t, uint64_t, btree::SequentialSearchTag>>();
}

TEST(BatchTreeTest, SegTreeBreadthFirst) {
  CheckTreeAllShapes<
      segtree::SegTree<uint32_t, uint64_t, Layout::kBreadthFirst>>();
}

TEST(BatchTreeTest, SegTreeDepthFirst) {
  CheckTreeAllShapes<
      segtree::SegTree<uint32_t, uint64_t, Layout::kDepthFirst>>();
}

TEST(BatchTreeTest, SegTreeEvalAndBackendCombos) {
  CheckTreeAllShapes<segtree::SegTree<uint32_t, uint64_t,
                                      Layout::kBreadthFirst,
                                      simd::BitShiftEval, Backend::kScalar>>();
  CheckTreeAllShapes<segtree::SegTree<
      uint32_t, uint64_t, Layout::kDepthFirst, simd::SwitchCaseEval,
      simd::kDefaultBackend>>();
  CheckTreeAllShapes<segtree::SegTree<uint64_t, uint64_t,
                                      Layout::kBreadthFirst,
                                      simd::PopcountEval,
                                      simd::kDefaultBackend>>();
#if defined(__AVX2__)
  CheckTreeAllShapes<segtree::SegTree<uint32_t, uint64_t,
                                      Layout::kBreadthFirst,
                                      simd::PopcountEval, Backend::kSse,
                                      256>>();
#endif
}

TEST(BatchTreeTest, SegTreeWiderWidths) {
  CheckTreeAllShapes<segtree::SegTree<uint32_t, uint64_t,
                                      Layout::kBreadthFirst,
                                      simd::PopcountEval, Backend::kScalar,
                                      512>>();
  // Dispatch-routed inner-node search at 256/512-bit node width.
  CheckTreeAllShapes<segtree::SegTree<uint32_t, uint64_t,
                                      Layout::kBreadthFirst,
                                      simd::PopcountEval,
                                      simd::kDefaultBackend, 256>>();
  CheckTreeAllShapes<segtree::SegTree<uint32_t, uint64_t,
                                      Layout::kDepthFirst,
                                      simd::PopcountEval,
                                      simd::kDefaultBackend, 512>>();
}

// --- Seg-Trie FindBatch ---------------------------------------------------

template <typename TrieT>
void CheckTrieBatches() {
  using Key = typename TrieT::KeyType;
  TrieT trie;
  // Empty trie: everything misses.
  {
    const Key probes[2] = {Key{0}, Key{77}};
    const uint64_t* out[2];
    trie.FindBatch(probes, 2, out);
    EXPECT_EQ(out[0], nullptr);
    EXPECT_EQ(out[1], nullptr);
  }
  Rng rng(21);
  std::vector<Key> keys;
  for (int i = 0; i < 4000; ++i) {
    // Mix of dense low keys, shared-prefix clusters, and full-width keys
    // so lookups terminate at different trie levels.
    Key k;
    switch (i % 3) {
      case 0: k = static_cast<Key>(rng.NextBounded(2048)); break;
      case 1:
        k = static_cast<Key>(Key{0xAB} << (sizeof(Key) * 8 - 8)) |
            static_cast<Key>(rng.NextBounded(4096));
        break;
      default: k = static_cast<Key>(rng.Next()); break;
    }
    keys.push_back(k);
    trie.Insert(k, static_cast<uint64_t>(i));
  }
  for (size_t batch : kBatchSizes) {
    const auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<const uint64_t*> out(batch);
    trie.FindBatch(probes.data(), batch, out.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = trie.Find(probes[i]);
      ASSERT_EQ(out[i] != nullptr, want.has_value())
          << "batch=" << batch << " i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*out[i], *want);
      }
    }
    std::vector<const uint64_t*> out_g(batch);
    for (int group : {1, 5, kMaxBatchGroup}) {
      trie.FindBatch(probes.data(), batch, out_g.data(), group);
      for (size_t i = 0; i < batch; ++i) ASSERT_EQ(out_g[i], out[i]);
    }
  }
}

TEST(BatchTrieTest, PlainSegTrie64) {
  CheckTrieBatches<segtrie::SegTrie<uint64_t, uint64_t>>();
}

TEST(BatchTrieTest, OptimizedSegTrie64) {
  CheckTrieBatches<segtrie::OptimizedSegTrie<uint64_t, uint64_t>>();
}

TEST(BatchTrieTest, PlainSegTrie32) {
  CheckTrieBatches<segtrie::SegTrie<uint32_t, uint64_t>>();
}

// --- logical search cost: batch counters vs single-query counted ----------
//
// The counted batch paths must report exactly the logical cost of
// running every probe through the single-query counted variant — the
// pipeline changes the memory schedule, never the amount of logical
// work. The cost must also be independent of the group width.

template <typename T>
void CheckKaryBatchCounters(const std::vector<T>& keys, Layout layout,
                            Storage storage) {
  KaryArray<T> arr(keys, layout, storage);
  // Rebuild the linearized array exactly as KaryArray does, so the
  // low-level counted singles can serve as the oracle.
  kary::KaryShape shape = kary::KaryShape::For(
      simd::LaneTraits<T>::kArity, keys.empty() ? 1 : keys.size());
  const kary::KaryLayout kl(shape, layout);
  const int64_t stored =
      kl.StoredSlots(static_cast<int64_t>(keys.size()), storage);
  std::vector<T> lin(static_cast<size_t>(stored));
  kl.Linearize(keys.data(), static_cast<int64_t>(keys.size()), lin.data(),
               stored, kary::PadValue<T>());

  Rng rng(77);
  const auto probes = MakeProbes<T>(keys, 300, rng);
  const int64_t n = static_cast<int64_t>(keys.size());

  SearchCounters want;
  std::vector<int64_t> want_ub(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    want_ub[i] =
        layout == Layout::kBreadthFirst
            ? kary::UpperBoundBf<T>(lin.data(), stored, n, probes[i], &want)
            : kary::UpperBoundDf<T>(lin.data(), stored, n, probes[i], &want);
  }

  std::vector<int64_t> out(probes.size());
  for (int group : {1, 6, kMaxBatchGroup}) {
    SearchCounters got;
    arr.UpperBoundBatch(probes.data(), probes.size(), out.data(), group,
                        &got);
    EXPECT_EQ(got.simd_comparisons, want.simd_comparisons)
        << "group=" << group;
    EXPECT_EQ(got.nodes_visited, want.nodes_visited) << "group=" << group;
    for (size_t i = 0; i < probes.size(); ++i) {
      ASSERT_EQ(out[i], want_ub[i]) << "i=" << i;
    }
  }

  // Lower bound: each non-minimum probe costs exactly one counted
  // upper-bound descent on v - 1; type-minimum probes resolve to 0
  // without touching the array (LowerBoundFromUpperBound contract).
  SearchCounters want_lb;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (probes[i] == std::numeric_limits<T>::min()) continue;
    const T v = static_cast<T>(probes[i] - 1);
    if (layout == Layout::kBreadthFirst) {
      kary::UpperBoundBf<T>(lin.data(), stored, n, v, &want_lb);
    } else {
      kary::UpperBoundDf<T>(lin.data(), stored, n, v, &want_lb);
    }
  }
  for (int group : {1, kMaxBatchGroup}) {
    SearchCounters got;
    arr.LowerBoundBatch(probes.data(), probes.size(), out.data(), group,
                        &got);
    EXPECT_EQ(got.simd_comparisons, want_lb.simd_comparisons)
        << "group=" << group;
  }
}

TEST(BatchCountersTest, KaryArrayMatchesCountedSingles) {
  Rng rng(123);
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{100}, int64_t{5000}}) {
    std::vector<uint32_t> keys(static_cast<size_t>(n));
    for (auto& k : keys) k = static_cast<uint32_t>(rng.Next());
    std::sort(keys.begin(), keys.end());
    CheckKaryBatchCounters<uint32_t>(keys, Layout::kBreadthFirst,
                                     Storage::kTruncated);
    CheckKaryBatchCounters<uint32_t>(keys, Layout::kBreadthFirst,
                                     Storage::kPerfect);
    CheckKaryBatchCounters<uint32_t>(keys, Layout::kDepthFirst,
                                     Storage::kPerfect);
  }
}

TEST(BatchCountersTest, KaryTypeMinProbesCostNothing) {
  Rng rng(9);
  std::vector<uint32_t> keys(1000);
  for (auto& k : keys) k = static_cast<uint32_t>(rng.Next());
  std::sort(keys.begin(), keys.end());
  KaryArray<uint32_t> arr(keys, Layout::kBreadthFirst, Storage::kTruncated);

  const std::vector<uint32_t> probes(64, std::numeric_limits<uint32_t>::min());
  std::vector<int64_t> out(probes.size(), -1);
  SearchCounters c;
  arr.LowerBoundBatch(probes.data(), probes.size(), out.data(),
                      kDefaultBatchGroup, &c);
  EXPECT_EQ(c.simd_comparisons, 0u);
  EXPECT_EQ(c.nodes_visited, 0u);
  for (int64_t v : out) EXPECT_EQ(v, 0);
}

template <typename TreeT>
void CheckTreeBatchCounters() {
  using Key = typename TreeT::KeyType;
  Rng rng(17);
  TreeT tree(8);  // small fanout: depth, so nodes_visited is interesting
  std::vector<Key> keys;
  for (int i = 0; i < 4000; ++i) {
    const Key k = static_cast<Key>(rng.NextBounded(2000));
    keys.push_back(k);
    tree.Insert(k, static_cast<uint64_t>(i));
  }
  std::sort(keys.begin(), keys.end());
  const auto probes = MakeProbes<Key>(keys, 500, rng);

  SearchCounters want;
  for (Key p : probes) tree.FindCounted(p, &want);
  ASSERT_GT(want.nodes_visited, probes.size());  // depth > 1

  std::vector<const uint64_t*> out(probes.size());
  for (int group : {1, 5, kMaxBatchGroup}) {
    SearchCounters got;
    tree.FindBatch(probes.data(), probes.size(), out.data(), group, &got);
    EXPECT_EQ(got.nodes_visited, want.nodes_visited) << "group=" << group;
  }

  // LowerBoundBatch has no single-query counted twin; its logical cost
  // contract is group-invariance.
  std::vector<typename TreeT::ConstIterator> its(probes.size());
  SearchCounters lb1, lb16;
  tree.LowerBoundBatch(probes.data(), probes.size(), its.data(), 1, &lb1);
  tree.LowerBoundBatch(probes.data(), probes.size(), its.data(), 16, &lb16);
  EXPECT_GT(lb1.nodes_visited, 0u);
  EXPECT_EQ(lb1.nodes_visited, lb16.nodes_visited);
}

TEST(BatchCountersTest, BPlusTreeMatchesFindCounted) {
  CheckTreeBatchCounters<btree::BPlusTree<uint32_t, uint64_t>>();
}

TEST(BatchCountersTest, SegTreeMatchesFindCounted) {
  CheckTreeBatchCounters<segtree::SegTree<uint32_t, uint64_t>>();
  CheckTreeBatchCounters<
      segtree::SegTree<uint32_t, uint64_t, Layout::kDepthFirst>>();
}

template <typename TrieT>
void CheckTrieBatchCounters() {
  using Key = typename TrieT::KeyType;
  Rng rng(29);
  TrieT trie;
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    // Shared-prefix clusters plus full-width keys: some probes
    // terminate early on a missing segment, some reach the leaf.
    const Key k = i % 2 == 0 ? static_cast<Key>(rng.NextBounded(4096))
                             : static_cast<Key>(rng.Next());
    keys.push_back(k);
    trie.Insert(k, static_cast<uint64_t>(i));
  }
  const auto probes = MakeProbes<Key>(keys, 400, rng);

  SearchCounters want;
  for (Key p : probes) trie.FindCounted(p, &want);
  ASSERT_GT(want.nodes_visited, 0u);

  std::vector<const uint64_t*> out(probes.size());
  for (int group : {1, 7, kMaxBatchGroup}) {
    SearchCounters got;
    trie.FindBatch(probes.data(), probes.size(), out.data(), group, &got);
    EXPECT_EQ(got.nodes_visited, want.nodes_visited) << "group=" << group;
    EXPECT_EQ(got.simd_comparisons, want.simd_comparisons)
        << "group=" << group;
    EXPECT_EQ(got.scalar_comparisons, want.scalar_comparisons)
        << "group=" << group;
  }
}

TEST(BatchCountersTest, SegTrieMatchesFindCounted) {
  CheckTrieBatchCounters<segtrie::SegTrie<uint64_t, uint64_t>>();
  CheckTrieBatchCounters<segtrie::OptimizedSegTrie<uint64_t, uint64_t>>();
}

// --- one-shard ShardedIndex -----------------------------------------------

template <typename Index>
void CheckOneShardBatch() {
  using Key = typename Index::KeyType;
  ShardedIndex<Index> index(1);
  Rng rng(31);
  std::vector<Key> keys;
  for (int i = 0; i < 2000; ++i) {
    const Key k = static_cast<Key>(rng.NextBounded(5000));
    keys.push_back(k);
    index.Insert(k, static_cast<uint64_t>(i));
  }
  for (size_t batch : kBatchSizes) {
    const auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<std::optional<uint64_t>> out(batch);
    index.FindBatch(probes.data(), batch, out.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = index.Find(probes[i]);
      ASSERT_EQ(out[i].has_value(), want.has_value());
      if (want.has_value()) {
        ASSERT_EQ(*out[i], *want);
      }
    }
  }
}

TEST(BatchOneShardTest, SegTree) {
  CheckOneShardBatch<segtree::SegTree<uint32_t, uint64_t>>();
}

TEST(BatchOneShardTest, SegTrie) {
  CheckOneShardBatch<segtrie::SegTrie<uint64_t, uint64_t>>();
}

}  // namespace
}  // namespace simdtree
