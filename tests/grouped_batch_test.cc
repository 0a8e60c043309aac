// Differential coverage for the grouped (level-wise) batched descent:
// sort the batch once, visit each node once (core/batch_sort.h,
// btree/batch_descent.h, segtrie/segtrie.h FindBatchGrouped). The
// grouped engine reorders the work radically — sorted probes, frontier
// runs, one load per node — but must agree element-for-element with the
// single-query paths and report exactly the summed single-query logical
// cost in SearchCounters; the physical amortization is visible only in
// the separate nodes_loaded field. Batch sizes cover the degenerate
// (0, 1), the chunk boundary of the pipelined path (255, 256), and a
// size where every tree level is shared (4096); probe sets cover
// duplicates, misses, key neighbours, type extremes, and already-sorted
// and reverse-sorted input orders, under the locked and the optimistic
// policy; batches shaped for the leaf schedule (sorted runs searched
// once, later keys stepped forward) add clustered, straddling, long and
// miss-heavy runs. The batch sort's own contract is checked directly,
// for signed and unsigned keys.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "btree/btree.h"
#include "core/batch.h"
#include "core/batch_sort.h"
#include "core/olc.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "kary/layout.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "simd/bitmask_eval.h"
#include "simd/simd256.h"
#include "util/counters.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using kary::Layout;
using simd::Backend;

constexpr size_t kGroupedBatchSizes[] = {0, 1, 255, 256, 4096};

// Probes covering hits, misses, neighbours of keys, and type extremes.
template <typename T>
std::vector<T> MakeProbes(const std::vector<T>& keys, size_t count,
                          Rng& rng) {
  std::vector<T> probes;
  if (count == 0) return probes;
  probes = {std::numeric_limits<T>::min(), std::numeric_limits<T>::max(),
            T{0}};
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

// The three input orders the sort must be indifferent to.
enum class ProbeOrder { kShuffled, kSorted, kReversed };

template <typename T>
void ApplyOrder(std::vector<T>* probes, ProbeOrder order) {
  if (order == ProbeOrder::kSorted) {
    std::sort(probes->begin(), probes->end());
  } else if (order == ProbeOrder::kReversed) {
    std::sort(probes->begin(), probes->end(), std::greater<T>());
  }
}

// --- core/batch_sort.h: the sort-permute-scatter contract -----------------

// keys come out ascending, keys[j] == input[perm[j]] with perm a
// permutation, and equal keys keep their caller order.
template <typename T>
void CheckSortContract(const std::vector<T>& input, const char* what) {
  SortedBatch<T> sorted;
  SortBatchWithPermutation(input.data(), input.size(), &sorted);
  const size_t n = input.size();
  ASSERT_EQ(sorted.keys.size(), n) << what;
  ASSERT_EQ(sorted.perm.size(), n) << what;
  std::vector<bool> taken(n, false);
  for (size_t j = 0; j < n; ++j) {
    const uint32_t p = sorted.perm[j];
    ASSERT_LT(p, n) << what << " j=" << j;
    ASSERT_FALSE(taken[p]) << what << " j=" << j;
    taken[p] = true;
    ASSERT_EQ(sorted.keys[j], input[p]) << what << " j=" << j;
    if (j == 0) continue;
    ASSERT_LE(sorted.keys[j - 1], sorted.keys[j]) << what << " j=" << j;
    if (sorted.keys[j - 1] == sorted.keys[j]) {
      ASSERT_LT(sorted.perm[j - 1], p) << what << " unstable at j=" << j;
    }
  }
}

template <typename T>
void CheckSortAllSizes() {
  using U = std::make_unsigned_t<T>;
  Rng rng(57);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{255},
                   size_t{4096}}) {
    std::vector<T> keys(n);
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    if (n >= 2) {
      keys[0] = std::numeric_limits<T>::max();
      keys[n - 1] = std::numeric_limits<T>::min();
    }
    CheckSortContract(keys, "full domain");
    // Five values around zero (around the top of the domain for
    // unsigned keys): long runs of equal keys.
    for (auto& k : keys) {
      k = static_cast<T>(static_cast<int64_t>(rng.NextBounded(5)) - 2);
    }
    CheckSortContract(keys, "duplicates");
    // Keys that differ in byte b only: every other byte's pass is
    // skipped, which leaves an odd pass count for any one b.
    for (size_t b = 0; b < sizeof(T); ++b) {
      const U mask = static_cast<U>(U{0xFF} << (8 * b));
      const U base = static_cast<U>(rng.Next());
      for (auto& k : keys) {
        k = static_cast<T>((base & static_cast<U>(~mask)) |
                           (static_cast<U>(rng.Next()) & mask));
      }
      CheckSortContract(keys, "one byte");
    }
  }
}

TEST(BatchSortTest, SortPermuteContract) {
  CheckSortAllSizes<int8_t>();
  CheckSortAllSizes<int16_t>();
  CheckSortAllSizes<int64_t>();
  CheckSortAllSizes<uint32_t>();
}

// The sort histograms and scatters only the bytes on which the batch's
// keys differ (one OR-of-XOR pass finds them): no byte, only the top one
// (where a signed key's sign flip lives), and every byte.
template <typename T>
void CheckByteSelection() {
  using U = std::make_unsigned_t<T>;
  constexpr int kTop = 8 * (static_cast<int>(sizeof(T)) - 1);
  Rng rng(91);
  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{300}}) {
    std::vector<T> keys(n, static_cast<T>(rng.Next()));
    CheckSortContract(keys, "agree on every byte");
    const U low = static_cast<U>(rng.Next()) &
                  static_cast<U>(~static_cast<U>(U{0xFF} << kTop));
    for (auto& k : keys) {
      k = static_cast<T>(low | static_cast<U>(static_cast<U>(rng.Next())
                                              << kTop));
    }
    CheckSortContract(keys, "differ in the top byte only");
    for (auto& k : keys) {
      k = static_cast<T>(static_cast<int64_t>(rng.NextBounded(600)) - 300);
    }
    CheckSortContract(keys, "straddle zero");
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    CheckSortContract(keys, "every byte");
  }
  // Every ordering of two keys, equal ones included.
  const T lo = std::numeric_limits<T>::min();
  const T hi = std::numeric_limits<T>::max();
  for (const auto& pair : std::vector<std::vector<T>>{
           {lo, hi}, {hi, lo}, {T{1}, T{0}}, {T{0}, T{1}}, {hi, hi},
           {lo, lo}, {static_cast<T>(-1), T{1}}, {T{1}, static_cast<T>(-1)}}) {
    CheckSortContract(pair, "n = 2");
  }
  CheckSortContract(std::vector<T>{lo}, "n = 1");
}

TEST(BatchSortTest, SortsOnlyTheBytesThatDiffer) {
  CheckByteSelection<int8_t>();
  CheckByteSelection<int16_t>();
  CheckByteSelection<int32_t>();
  CheckByteSelection<int64_t>();
  CheckByteSelection<uint16_t>();
  CheckByteSelection<uint32_t>();
  CheckByteSelection<uint64_t>();
}

// --- Tree FindBatchGrouped ------------------------------------------------

// One batch through both policies of the grouped engine: every answer
// equals Find's, and the logical visits equal the summed counted Finds.
// A quiescent optimistic call may still report a query failed (one whose
// occurrence may end the previous leaf); the per-key retry answers it.
template <typename TreeT, typename Key>
void CheckGroupedBatch(TreeT& tree, const std::vector<Key>& probes,
                       const char* what) {
  const size_t n = probes.size();
  std::vector<const uint64_t*> found(n);
  SearchCounters got_c;
  tree.FindBatchGrouped(probes.data(), n, found.data(), &got_c);
  SearchCounters want_c;
  for (size_t i = 0; i < n; ++i) {
    const auto want = tree.FindCounted(probes[i], &want_c);
    ASSERT_EQ(found[i] != nullptr, want.has_value()) << what << " i=" << i;
    if (want.has_value()) {
      ASSERT_EQ(*found[i], *want) << what << " i=" << i;
    }
  }
  EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited) << what;
  if constexpr (TreeT::kOptimisticCapable) {
    ASSERT_TRUE(tree.EnableConcurrentReads());
    std::vector<std::optional<uint64_t>> out(n);
    std::vector<uint32_t> failed;
    tree.FindBatchGroupedOptimistic(probes.data(), n, out.data(), &failed);
    for (const uint32_t i : failed) {
      ASSERT_EQ(tree.FindOptimistic(probes[i], &out[i]), olc::ReadResult::kOk);
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], tree.Find(probes[i])) << what << " optimistic i=" << i;
    }
  }
}

template <typename TreeT, typename Key>
void CheckTreeGrouped(TreeT& tree, const std::vector<Key>& keys) {
  Rng rng(7);
  for (size_t batch : kGroupedBatchSizes) {
    for (ProbeOrder order : {ProbeOrder::kShuffled, ProbeOrder::kSorted,
                             ProbeOrder::kReversed}) {
      auto probes = MakeProbes<Key>(keys, batch, rng);
      ApplyOrder(&probes, order);
      const std::string what = "batch=" + std::to_string(batch) +
                               " order=" +
                               std::to_string(static_cast<int>(order));
      CheckGroupedBatch(tree, probes, what.c_str());
      // The physical amortization (nodes_loaded) never exceeds the
      // logical visits.
      std::vector<const uint64_t*> found(batch);
      SearchCounters c;
      tree.FindBatchGrouped(probes.data(), batch, found.data(), &c);
      if (batch > 0 && !keys.empty()) {
        EXPECT_GT(c.nodes_loaded, 0u) << what;
        EXPECT_LE(c.nodes_loaded, c.nodes_visited) << what;
      }
    }
  }
}

// The grouped engine's leaf schedule: each sorted run's first key is
// searched, its later keys step forward from the key before, and only
// the lines the run reads are fetched. `keys` is the tree's sorted
// content, duplicates included.
template <typename TreeT, typename Key>
void CheckRunSchedule(TreeT& tree, const std::vector<Key>& keys) {
  std::vector<Key> distinct = keys;
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const size_t d = distinct.size();
  Rng rng(29);
  const auto shuffled = [&rng](std::vector<Key> probes) {
    for (size_t i = probes.size(); i > 1; --i) {
      std::swap(probes[i - 1], probes[rng.NextBounded(i)]);
    }
    return probes;
  };
  // Runs of 16 adjacent stored keys from random starts: 64 runs, more
  // than one lockstep group of leaves.
  std::vector<Key> probes;
  for (int r = 0; r < 64; ++r) {
    const size_t start = rng.NextBounded(d - 16);
    for (size_t j = 0; j < 16; ++j) probes.push_back(distinct[start + j]);
  }
  CheckGroupedBatch(tree, shuffled(probes), "clustered");
  // Runs every 97 keys: some straddle a leaf boundary whatever the node
  // capacity.
  probes.clear();
  for (size_t start = 0; start + 16 <= d; start += 97) {
    for (size_t j = 0; j < 16; ++j) probes.push_back(distinct[start + j]);
  }
  CheckGroupedBatch(tree, shuffled(probes), "straddling");
  // Every key of a window twice: with the tree's own duplicates spanning
  // leaves, a run's first key may end the previous leaf.
  probes.assign(distinct.begin(), distinct.begin() + std::min<size_t>(d, 600));
  probes.insert(probes.end(), probes.begin(), probes.end());
  CheckGroupedBatch(tree, shuffled(probes), "duplicates");
  // Each key with both neighbours: runs alternating hits and misses.
  probes.clear();
  for (size_t i = 0; i < std::min<size_t>(d, 500); ++i) {
    const Key k = distinct[d / 3 + i % (d - d / 3)];
    probes.push_back(k);
    if (k != std::numeric_limits<Key>::max()) probes.push_back(k + 1);
    if (k != std::numeric_limits<Key>::min()) probes.push_back(k - 1);
  }
  CheckGroupedBatch(tree, shuffled(probes), "misses between keys");
  // Runs longer than a leaf: 700 misses inside the widest gap between
  // two stored keys, 700 copies of one key, and a sweep of 2000 keys.
  using U = std::make_unsigned_t<Key>;
  const auto width = [&](size_t i) {
    return static_cast<U>(static_cast<U>(distinct[i + 1]) -
                          static_cast<U>(distinct[i]));
  };
  size_t gap = 0;
  for (size_t i = 1; i + 1 < d; ++i) {
    if (width(i) > width(gap)) gap = i;
  }
  probes.clear();
  for (size_t i = 0; i < 700; ++i) {
    if (width(gap) > 1) {
      probes.push_back(static_cast<Key>(static_cast<U>(distinct[gap]) + 1 +
                                        i % (width(gap) - 1)));
    }
    probes.push_back(distinct[d / 2]);
  }
  probes.insert(probes.end(), distinct.begin(),
                distinct.begin() + std::min<size_t>(d, 2000));
  CheckGroupedBatch(tree, shuffled(probes), "runs longer than a leaf");
}

template <typename TreeT>
void CheckTreeGroupedAllShapes() {
  using Key = typename TreeT::KeyType;
  // Empty tree: everything misses, nothing is loaded.
  {
    TreeT tree(16);
    const Key probes[3] = {Key{0}, Key{1}, Key{42}};
    const uint64_t* out[3];
    SearchCounters c;
    tree.FindBatchGrouped(probes, 3, out, &c);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i], nullptr);
    EXPECT_EQ(c.nodes_loaded, 0u);
  }
  Rng rng(13);
  // Incrementally built with duplicates (multimap), small fanout for
  // depth; then a bulk-loaded larger tree.
  {
    TreeT tree(8);
    std::vector<Key> keys;
    for (int i = 0; i < 3000; ++i) {
      const Key k = static_cast<Key>(rng.NextBounded(1200));
      keys.push_back(k);
      tree.Insert(k, static_cast<uint64_t>(i));
    }
    std::sort(keys.begin(), keys.end());
    CheckTreeGrouped(tree, keys);
    CheckRunSchedule(tree, keys);
    // Erasing leaves stale separators: a leaf's first key gone, a query
    // routed there finds its upper bound at 0 and the locked run hops to
    // the previous leaf, whose last key may be a duplicate of it.
    std::vector<Key> erased;
    for (size_t i = 0; i < keys.size(); i += 3) {
      ASSERT_TRUE(tree.Erase(keys[i]));
      erased.push_back(keys[i]);
    }
    std::vector<Key> kept;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i % 3 != 0) kept.push_back(keys[i]);
    }
    std::sort(kept.begin(), kept.end());
    CheckGroupedBatch(tree, erased, "erased keys");
    CheckRunSchedule(tree, kept);
  }
  {
    std::vector<Key> keys(20000);
    for (auto& k : keys) k = static_cast<Key>(rng.Next());
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> values(keys.size());
    for (size_t i = 0; i < values.size(); ++i) values[i] = i;
    TreeT tree = TreeT::BulkLoad(keys.data(), values.data(), keys.size());
    CheckTreeGrouped(tree, keys);
    CheckRunSchedule(tree, keys);
  }
}

TEST(GroupedTreeTest, PlainBPlusTreeBinary) {
  CheckTreeGroupedAllShapes<btree::BPlusTree<uint32_t, uint64_t>>();
}

TEST(GroupedTreeTest, PlainBPlusTreeSequential) {
  CheckTreeGroupedAllShapes<
      btree::BPlusTree<uint32_t, uint64_t, btree::SequentialSearchTag>>();
}

TEST(GroupedTreeTest, SegTreeBreadthFirst) {
  CheckTreeGroupedAllShapes<
      segtree::SegTree<uint32_t, uint64_t, Layout::kBreadthFirst>>();
}

TEST(GroupedTreeTest, SegTreeDepthFirst) {
  CheckTreeGroupedAllShapes<
      segtree::SegTree<uint32_t, uint64_t, Layout::kDepthFirst>>();
}

TEST(GroupedTreeTest, SegTreeEvalAndBackendCombos) {
  CheckTreeGroupedAllShapes<segtree::SegTree<
      uint32_t, uint64_t, Layout::kBreadthFirst, simd::BitShiftEval,
      Backend::kScalar>>();
  CheckTreeGroupedAllShapes<segtree::SegTree<
      uint64_t, uint64_t, Layout::kBreadthFirst, simd::PopcountEval,
      simd::kDefaultBackend>>();
#if defined(__AVX2__)
  CheckTreeGroupedAllShapes<segtree::SegTree<
      uint32_t, uint64_t, Layout::kBreadthFirst, simd::PopcountEval,
      Backend::kSse, 256>>();
#endif
}

// Signed keys: the batch sort orders them through the sign-bit flip of
// OrderedImage, and MakeProbes adds the type minimum and maximum.
TEST(GroupedTreeTest, SignedKeys) {
  CheckTreeGroupedAllShapes<btree::BPlusTree<int64_t, uint64_t>>();
  CheckTreeGroupedAllShapes<segtree::SegTree<int16_t, uint64_t>>();
}

// The grouped engine fetches only the lines a sorted run reads: a run of
// 16 adjacent stored keys fetches its leaf's header when pushed, then the
// key lines of its next sorted positions and its value lines, where a
// whole-leaf fetch takes every key line (31 for 242 uint64_t keys). The
// tree has one inner level (a root over 200 full leaves), so the
// leaf-level runs are nodes_loaded - 1, and the root's fetch is the only
// other cost.
TEST(GroupedTreeTest, ClusteredLeafRunsFetchOnlyTheirLines) {
  using Tree = segtree::SegTree<uint64_t, uint64_t>;
  constexpr size_t kLeafKeys = 242;
  std::vector<uint64_t> keys(kLeafKeys * 200);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = 2 * (i + 1);
    values[i] = 10 * keys[i];
  }
  const Tree tree =
      Tree::BulkLoad(keys.data(), values.data(), keys.size(), 1.0, kLeafKeys);
  ASSERT_EQ(tree.height(), 2);
  Rng rng(31);
  std::vector<uint64_t> probes;
  for (int r = 0; r < 64; ++r) {
    const size_t start = rng.NextBounded(keys.size() - 16);
    for (size_t j = 0; j < 16; ++j) probes.push_back(keys[start + j]);
  }
  std::vector<const uint64_t*> out(probes.size());
  SearchCounters c;
  tree.FindBatchGrouped(probes.data(), probes.size(), out.data(), &c);
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_NE(out[i], nullptr);
    ASSERT_EQ(*out[i], 10 * probes[i]);
  }
  ASSERT_GT(c.nodes_loaded, 1u);
  const double runs = static_cast<double>(c.nodes_loaded - 1);
  const double lines_per_run = static_cast<double>(c.lines_prefetched) / runs;
  std::printf("lines per leaf run: %.2f (%llu lines, %.0f runs)\n",
              lines_per_run,
              static_cast<unsigned long long>(c.lines_prefetched), runs);
  EXPECT_LE(lines_per_run, 12.0);
}

// --- Seg-Trie FindBatchGrouped --------------------------------------------

template <typename TrieT>
void CheckTrieGrouped() {
  using Key = typename TrieT::KeyType;
  TrieT trie;
  // Empty trie: everything misses.
  {
    const Key probes[2] = {Key{0}, Key{77}};
    const uint64_t* out[2];
    SearchCounters c;
    trie.FindBatchGrouped(probes, 2, out, &c);
    EXPECT_EQ(out[0], nullptr);
    EXPECT_EQ(out[1], nullptr);
    EXPECT_EQ(c.nodes_loaded, 0u);
  }
  Rng rng(23);
  std::vector<Key> keys;
  for (int i = 0; i < 4000; ++i) {
    // Dense low keys, shared-prefix clusters, and full-width keys so
    // lookups terminate at different trie levels.
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
  for (size_t batch : kGroupedBatchSizes) {
    for (ProbeOrder order : {ProbeOrder::kShuffled, ProbeOrder::kSorted,
                             ProbeOrder::kReversed}) {
      auto probes = MakeProbes<Key>(keys, batch, rng);
      ApplyOrder(&probes, order);
      std::vector<const uint64_t*> out(batch);
      trie.FindBatchGrouped(probes.data(), batch, out.data());
      for (size_t i = 0; i < batch; ++i) {
        const auto want = trie.Find(probes[i]);
        ASSERT_EQ(out[i] != nullptr, want.has_value())
            << "batch=" << batch << " order=" << static_cast<int>(order)
            << " i=" << i;
        if (want.has_value()) {
          ASSERT_EQ(*out[i], *want) << "i=" << i;
        }
      }
      // Full logical cost parity with summed counted singles.
      SearchCounters want_c;
      for (Key p : probes) trie.FindCounted(p, &want_c);
      SearchCounters got_c;
      trie.FindBatchGrouped(probes.data(), batch, out.data(), &got_c);
      EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited)
          << "batch=" << batch << " order=" << static_cast<int>(order);
      EXPECT_EQ(got_c.simd_comparisons, want_c.simd_comparisons)
          << "batch=" << batch;
      EXPECT_EQ(got_c.scalar_comparisons, want_c.scalar_comparisons)
          << "batch=" << batch;
      if (batch > 0) {
        EXPECT_GT(got_c.nodes_loaded, 0u);
        EXPECT_LE(got_c.nodes_loaded, got_c.nodes_visited);
      }
    }
  }
}

TEST(GroupedTrieTest, PlainSegTrie64) {
  CheckTrieGrouped<segtrie::SegTrie<uint64_t, uint64_t>>();
}

TEST(GroupedTrieTest, OptimizedSegTrie64) {
  CheckTrieGrouped<segtrie::OptimizedSegTrie<uint64_t, uint64_t>>();
}

TEST(GroupedTrieTest, PlainSegTrie32) {
  CheckTrieGrouped<segtrie::SegTrie<uint32_t, uint64_t>>();
}

// --- wrapper dispatch: heuristic must never change an answer --------------

template <typename Index>
void CheckOneShardGrouped() {
  using Key = typename Index::KeyType;
  ShardedIndex<Index> index(1);
  Rng rng(37);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(rng.Next());
    keys.push_back(k);
    index.Insert(k, static_cast<uint64_t>(i));
  }
  // 4096 crosses the UseGroupedDescent threshold (grouped route); 255
  // stays below it (pipelined route). Both must agree with Find.
  for (size_t batch : kGroupedBatchSizes) {
    auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<std::optional<uint64_t>> out(batch);
    index.FindBatch(probes.data(), batch, out.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = index.Find(probes[i]);
      ASSERT_EQ(out[i].has_value(), want.has_value())
          << "batch=" << batch << " i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*out[i], *want) << "i=" << i;
      }
    }
  }
}

TEST(GroupedDispatchTest, OneShardSegTree) {
  CheckOneShardGrouped<segtree::SegTree<uint32_t, uint64_t>>();
}

TEST(GroupedDispatchTest, OneShardSegTrie) {
  CheckOneShardGrouped<segtrie::SegTrie<uint64_t, uint64_t>>();
}

template <typename Index>
void CheckShardedGrouped(size_t shards) {
  using Key = typename Index::KeyType;
  ShardedIndex<Index> index(shards);
  Rng rng(41);
  std::vector<Key> keys;
  for (int i = 0; i < 3000; ++i) {
    const Key k = static_cast<Key>(rng.Next());  // full-domain spread
    keys.push_back(k);
    index.Insert(k, static_cast<uint64_t>(i));
  }
  for (size_t batch : kGroupedBatchSizes) {
    auto probes = MakeProbes<Key>(keys, batch, rng);
    std::vector<std::optional<uint64_t>> out(batch);
    index.FindBatch(probes.data(), batch, out.data());
    for (size_t i = 0; i < batch; ++i) {
      const auto want = index.Find(probes[i]);
      ASSERT_EQ(out[i].has_value(), want.has_value())
          << "shards=" << shards << " batch=" << batch << " i=" << i;
      if (want.has_value()) {
        ASSERT_EQ(*out[i], *want) << "i=" << i;
      }
    }
  }
}

TEST(GroupedDispatchTest, ShardedSegTree) {
  CheckShardedGrouped<segtree::SegTree<uint32_t, uint64_t>>(4);
}

TEST(GroupedDispatchTest, ShardedSegTreeSingleShardFastPath) {
  CheckShardedGrouped<segtree::SegTree<uint32_t, uint64_t>>(1);
}

TEST(GroupedDispatchTest, ShardedSegTrie) {
  CheckShardedGrouped<segtrie::SegTrie<uint64_t, uint64_t>>(4);
}

// The heuristic itself: monotone in n, gated on levels.
TEST(GroupedDispatchTest, UseGroupedDescentHeuristic) {
  EXPECT_FALSE(UseGroupedDescent(0, 3));
  EXPECT_FALSE(UseGroupedDescent(100, 0));
  const size_t at = static_cast<size_t>(3 * kGroupedMinBatchPerLevel);
  EXPECT_FALSE(UseGroupedDescent(at - 1, 3));
  EXPECT_TRUE(UseGroupedDescent(at, 3));
  EXPECT_TRUE(UseGroupedDescent(at * 10, 3));
}

}  // namespace
}  // namespace simdtree
