// ShardedIndex unit tests: partitioning (ShardOf, uniform and
// sample-quantile splitters), the full index surface against a std::map
// oracle, cross-shard ScanRange stitching, the FindBatch edge cases the
// differential batch tests skip — empty batches, all-missing batches,
// batches larger than the 256-key chunk of the locked FindBatch path,
// and duplicate keys straddling a shard splitter — the one-shard
// (single-lock) wrapper under concurrent readers and writers, and every
// read with the epoch registry exhausted.
//
// Default iteration counts are sized for the fast tier-1 run
// (`ctest -LE stress`); the ctest `stress` label re-runs this binary
// with SIMDTREE_STRESS=1 for the 10x soak.

#include "core/sharded.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "core/olc.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "segtree/segtree.h"
#include "segtrie/segtrie.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using SegTree64 = segtree::SegTree<uint64_t, uint64_t>;
using BTree64 = btree::BPlusTree<uint64_t, uint64_t>;
using Trie64 = segtrie::SegTrie<uint64_t, uint64_t>;

// 10x the workload when SIMDTREE_STRESS is set (the ctest `stress`
// label).
int StressScale() {
  const char* env = std::getenv("SIMDTREE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 10 : 1;
}

TEST(ShardedTest, UniformSplittersPartitionTheDomain) {
  ShardedIndex<SegTree64> index(8);
  EXPECT_EQ(index.num_shards(), 8u);
  ASSERT_EQ(index.splitters().size(), 7u);
  // Uniform division of the 64-bit domain: splitter s = s * 2^61.
  for (size_t s = 0; s < 7; ++s) {
    EXPECT_EQ(index.splitters()[s], (s + 1) * (1ULL << 61));
  }
  EXPECT_EQ(index.ShardOf(0), 0u);
  EXPECT_EQ(index.ShardOf((1ULL << 61) - 1), 0u);
  // A key equal to a splitter belongs to the shard on its right.
  EXPECT_EQ(index.ShardOf(1ULL << 61), 1u);
  EXPECT_EQ(index.ShardOf(~0ULL), 7u);
}

TEST(ShardedTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardedIndex<SegTree64>(1).num_shards(), 1u);
  EXPECT_EQ(ShardedIndex<SegTree64>(3).num_shards(), 4u);
  EXPECT_EQ(ShardedIndex<SegTree64>(5).num_shards(), 8u);
  EXPECT_EQ(ShardedIndex<SegTree64>(16).num_shards(), 16u);
}

TEST(ShardedTest, SplittersFromSampleQuantiles) {
  // Clustered sample: uniform splitters would leave 7 of 8 shards
  // empty; quantile splitters spread the load.
  std::vector<uint64_t> sample;
  for (uint64_t k = 0; k < 8000; ++k) sample.push_back(k);
  const auto splitters =
      ShardedIndex<SegTree64>::SplittersFromSample(sample.data(),
                                                   sample.size(), 8);
  ASSERT_EQ(splitters.size(), 7u);
  for (size_t s = 0; s < 7; ++s) EXPECT_EQ(splitters[s], (s + 1) * 1000);

  ShardedIndex<SegTree64> index(8, splitters);
  for (uint64_t k = 0; k < 8000; ++k) index.Insert(k, k * 2);
  size_t nonempty = 0;
  index.ForEachShardRead([&](size_t, const SegTree64& tree) {
    if (tree.size() > 0) ++nonempty;
    EXPECT_EQ(tree.size(), 1000u);
  });
  EXPECT_EQ(nonempty, 8u);
  EXPECT_TRUE(index.Validate());
}

template <typename Index>
void CheckFullSurface() {
  ShardedIndex<Index> index(8);
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(7);
  // Mix of keys spanning all shards, including exact splitter keys.
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = i % 16 == 0
                           ? index.splitters()[rng.NextBounded(7)]
                           : rng.Next();
    const uint64_t v = static_cast<uint64_t>(i);
    index.Insert(k, v);
    oracle[k] = v;  // Index may be a multimap; values stay per-key
                    // deterministic below, so Find matches either way.
  }
  // Overwrite-free check needs deterministic values: rebuild both with
  // value = key ^ kSalt.
  constexpr uint64_t kSalt = 0x5AFE5AFE5AFE5AFEULL;
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  oracle.clear();
  Rng rng2(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = i % 16 == 0
                           ? index.splitters()[rng2.NextBounded(7)]
                           : rng2.Next();
    index.Insert(k, k ^ kSalt);
    oracle[k] = k ^ kSalt;
  }
  EXPECT_TRUE(index.Validate());

  // Point lookups, hits and misses.
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(index.Contains(k));
    ASSERT_EQ(index.Find(k).value(), v);
  }
  Rng rng3(8);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng3.Next();
    ASSERT_EQ(index.Find(k).has_value(), oracle.count(k) == 1);
  }

  // Erase half, re-check.
  size_t erased = 0;
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (erased % 2 == 0) {
      EXPECT_TRUE(index.Erase(it->first));
      it = oracle.erase(it);
    } else {
      ++it;
    }
    ++erased;
  }
  EXPECT_FALSE(index.Erase(~0ULL - 12345));  // never inserted
  for (const auto& [k, v] : oracle) ASSERT_EQ(index.Find(k).value(), v);
}

TEST(ShardedTest, FullSurfaceSegTree) { CheckFullSurface<SegTree64>(); }
TEST(ShardedTest, FullSurfaceBPlusTree) { CheckFullSurface<BTree64>(); }
TEST(ShardedTest, FullSurfaceSegTrie) { CheckFullSurface<Trie64>(); }

TEST(ShardedTest, ScanRangeStitchesAcrossShardBoundaries) {
  ShardedIndex<SegTree64> index(8);
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(11);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t k = rng.Next();
    index.Insert(k, k + 1);
    oracle[k] = k + 1;
  }
  // Include every splitter key so boundaries carry data.
  for (uint64_t s : index.splitters()) {
    index.Insert(s, s + 1);
    oracle[s] = s + 1;
  }
  EXPECT_EQ(index.size(), oracle.size());

  // Windows that span 0, 1, and many splitters, plus the full domain.
  const uint64_t q = 1ULL << 61;
  struct Window { uint64_t lo, hi; bool inclusive; };
  const Window windows[] = {
      {0, q / 2, false},                 // inside shard 0
      {q - 1000, q + 1000, false},       // spans splitter 1
      {q / 2, 7 * q + 17, false},        // spans six splitters
      {0, ~0ULL, true},                  // full domain, inclusive
      {3 * q, 3 * q, true},              // single splitter key
      {5, 5, false},                     // empty half-open window
  };
  for (const Window& w : windows) {
    std::vector<std::pair<uint64_t, uint64_t>> got;
    index.ScanRange(w.lo, w.hi,
                    [&got](uint64_t k, const uint64_t& v) {
                      got.emplace_back(k, v);
                    },
                    w.inclusive);
    std::vector<std::pair<uint64_t, uint64_t>> want;
    for (auto it = oracle.lower_bound(w.lo); it != oracle.end(); ++it) {
      if (w.inclusive ? it->first > w.hi : it->first >= w.hi) break;
      want.emplace_back(it->first, it->second);
    }
    ASSERT_EQ(got, want) << "window [" << w.lo << ", " << w.hi << ")"
                         << (w.inclusive ? " inclusive" : "");
  }
}

// --- FindBatch edge cases --------------------------------------------------

TEST(ShardedTest, FindBatchEmptyBatch) {
  ShardedIndex<SegTree64> index(4);
  index.Insert(1, 10);
  // n == 0 must be a no-op that never touches out (pass nullptr so any
  // dereference faults).
  index.FindBatch(nullptr, 0, nullptr);
  SUCCEED();
}

TEST(ShardedTest, FindBatchAllMissing) {
  ShardedIndex<SegTree64> index(8);
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k * 2, k);  // evens only
  std::vector<uint64_t> probes;
  for (uint64_t k = 0; k < 1000; ++k) probes.push_back(k * 2 + 1);
  // Spread misses across all shards too.
  for (uint64_t s : index.splitters()) probes.push_back(s + 1);
  std::vector<std::optional<uint64_t>> out(probes.size(),
                                           std::optional<uint64_t>(77));
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i].has_value()) << "i=" << i;  // 77 must be cleared
  }
}

TEST(ShardedTest, FindBatchLargerThanLockChunk) {
  // Batches well past the 256-key chunk that the locked FindBatch
  // engine processes per iteration within one shard: 1000 keys landing
  // in one shard plus a 5000-key all-shard batch.
  ShardedIndex<SegTree64> index(8);
  Rng rng(13);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.Next();
    keys.push_back(k);
    index.Insert(k, k ^ 0xF00DULL);
  }
  // One-shard batch: all probes below splitter 0.
  std::vector<uint64_t> one_shard;
  for (uint64_t k : keys) {
    if (k < index.splitters()[0]) one_shard.push_back(k);
    if (one_shard.size() == 1000) break;
  }
  ASSERT_GT(one_shard.size(), 400u);  // uniform keys: ~1/8 of 20000
  std::vector<std::optional<uint64_t>> out1(one_shard.size());
  index.FindBatch(one_shard.data(), one_shard.size(), out1.data());
  for (size_t i = 0; i < one_shard.size(); ++i) {
    ASSERT_TRUE(out1[i].has_value());
    ASSERT_EQ(*out1[i], one_shard[i] ^ 0xF00DULL);
  }
  // All-shard batch: hits interleaved with misses, 5000 keys.
  std::vector<uint64_t> probes;
  for (int i = 0; i < 5000; ++i) {
    probes.push_back(i % 2 == 0 ? keys[static_cast<size_t>(i) % keys.size()]
                                : rng.Next());
  }
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    const auto want = index.Find(probes[i]);
    ASSERT_EQ(out[i].has_value(), want.has_value()) << "i=" << i;
    if (want.has_value()) {
      ASSERT_EQ(*out[i], *want);
    }
  }
}

// Shards of unequal height in one batch: explicit splitters give shard 0
// a three-level tree, shard 1 a two-level one, shard 3 a single key (its
// range is [3M, 3M + 1)) and shard 5 nothing (equal adjacent
// splitters). Every batch is checked against per-key Find. Probes mix
// hits, misses, the splitter values themselves and duplicates; the
// 4096-key batches route most of their keys to shard 0 and 96 to shard
// 3, whose shares clear UseGroupedDescent (grouped), while the rest of
// the batch runs through the cross-shard pipelined call.
template <typename Index>
void CheckUnequalShardBatches() {
  constexpr uint64_t kM = 1u << 20;
  const std::vector<uint64_t> splitters = {kM,         2 * kM,     3 * kM,
                                           3 * kM + 1, 4 * kM,     4 * kM,
                                           6 * kM};
  ShardedIndex<Index> index(8, splitters);
  Rng rng(91);
  std::vector<uint64_t> stored;
  const auto insert = [&](uint64_t lo, uint64_t hi, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const uint64_t k = lo + rng.NextBounded(hi - lo);
      index.Insert(k, k * 7);
      stored.push_back(k);
    }
  };
  insert(0, kM, 60000);            // shard 0: three levels
  insert(kM, 2 * kM, 300);         // shard 1: two levels
  insert(2 * kM, 3 * kM, 5000);    // shard 2
  insert(3 * kM, 3 * kM + 1, 1);   // shard 3: one key, one level
  insert(3 * kM + 1, 4 * kM, 40);  // shard 4: one leaf
  insert(6 * kM, 7 * kM, 2000);    // shard 7; shards 5 and 6 stay empty
  for (const uint64_t s : splitters) index.Insert(s, s * 7);  // not 3M + 1
  stored.insert(stored.end(), splitters.begin(), splitters.end());
  ASSERT_TRUE(index.Validate());
  const auto height = [&](size_t s) {
    return index.WithShardRead(
        s, [](const Index& shard) { return BatchLevels(shard); });
  };
  if constexpr (!std::is_same_v<Index, Trie64>) {  // a trie's depth is fixed
    ASSERT_GT(height(0), height(1));
    ASSERT_EQ(height(5), 0);
  }

  const auto probe = [&] {
    switch (rng.NextBounded(4)) {
      case 0: return splitters[rng.NextBounded(splitters.size())];
      case 1: return rng.NextBounded(8 * kM);  // mostly misses
      default: return stored[rng.NextBounded(stored.size())];
    }
  };
  const auto check = [&](const std::vector<uint64_t>& keys) {
    std::vector<std::optional<uint64_t>> out(keys.size(),
                                             std::optional<uint64_t>(1));
    index.FindBatch(keys.data(), keys.size(), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(out[i], index.Find(keys[i]))
          << "n=" << keys.size() << " i=" << i << " key=" << keys[i];
    }
  };
  std::vector<uint64_t> keys;
  for (size_t n = 1; n <= 40; ++n) {
    for (int rep = 0; rep < 4 * StressScale(); ++rep) {
      keys.resize(n);
      for (uint64_t& k : keys) k = probe();
      if (n > 2) keys[n - 1] = keys[0];  // a duplicate probe
      check(keys);
    }
  }
  // 97: 96 probes of the one-key shard (its share groups) plus one more.
  keys.assign(96, 3 * kM);
  keys.push_back(probe());
  check(keys);
  // 4096: grouped shard 0 and shard 3 beside pipelined shards.
  for (int rep = 0; rep < 2 * StressScale(); ++rep) {
    keys.clear();
    for (int i = 0; i < 3000; ++i) {
      keys.push_back(i % 3 == 0 ? rng.NextBounded(kM)
                                : stored[rng.NextBounded(60000)]);
    }
    keys.insert(keys.end(), 96, 3 * kM);
    while (keys.size() < 4096) keys.push_back(probe());
    for (size_t i = keys.size() - 1; i > 0; --i) {  // shuffle
      std::swap(keys[i], keys[rng.NextBounded(i + 1)]);
    }
    ASSERT_TRUE(UseGroupedDescent(
        static_cast<size_t>(std::count_if(keys.begin(), keys.end(),
                                          [&](uint64_t k) {
                                            return index.ShardOf(k) == 0;
                                          })),
        height(0)));
    check(keys);
  }
}

TEST(ShardedTest, FindBatchAcrossUnequalShardsSegTree) {
  CheckUnequalShardBatches<SegTree64>();
}
TEST(ShardedTest, FindBatchAcrossUnequalShardsBPlusTree) {
  CheckUnequalShardBatches<BTree64>();
}
TEST(ShardedTest, FindBatchAcrossUnequalShardsSegTrie) {
  CheckUnequalShardBatches<Trie64>();
}

TEST(ShardedTest, OneShardFindBatchEdgeCases) {
  ShardedIndex<SegTree64> index(1);
  index.FindBatch(nullptr, 0, nullptr);  // n == 0: no-op
  for (uint64_t k = 0; k < 2000; ++k) index.Insert(k * 3, k);
  // All-missing batch.
  std::vector<uint64_t> missing;
  for (uint64_t k = 0; k < 500; ++k) missing.push_back(k * 3 + 1);
  std::vector<std::optional<uint64_t>> mout(missing.size(),
                                            std::optional<uint64_t>(9));
  index.FindBatch(missing.data(), missing.size(), mout.data());
  for (const auto& o : mout) ASSERT_FALSE(o.has_value());
  // 1000-key batch: four 256-key chunks, the last partial.
  std::vector<uint64_t> probes;
  for (uint64_t i = 0; i < 1000; ++i) probes.push_back(i * 3);
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_TRUE(out[i].has_value()) << "i=" << i;
    ASSERT_EQ(*out[i], i);
  }
}

TEST(ShardedTest, DuplicateKeysStraddlingASplitter) {
  // Multimap backend: duplicates of the splitter key itself all live in
  // the right-hand shard (ShardOf is deterministic), and FindBatch
  // resolves them like Find does.
  ShardedIndex<BTree64> index(4);
  const uint64_t split = index.splitters()[1];
  for (int i = 0; i < 100; ++i) {
    index.Insert(split, 42);        // 100 duplicates of the boundary key
    index.Insert(split - 1, 41);    // left neighbour, also duplicated
    index.Insert(split + 1, 43);    // right neighbour
  }
  EXPECT_EQ(index.size(), 300u);
  EXPECT_TRUE(index.Validate());
  // All occurrences of the boundary key are in exactly one shard.
  size_t shards_with_split = 0;
  index.ForEachShardRead([&](size_t, const BTree64& tree) {
    if (tree.Contains(split)) ++shards_with_split;
  });
  EXPECT_EQ(shards_with_split, 1u);
  // Batch with repeated boundary keys mixed with neighbours and misses.
  std::vector<uint64_t> probes;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(split);
    probes.push_back(split - 1);
    probes.push_back(split + 1);
    probes.push_back(split + 2);  // miss
  }
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    switch (i % 4) {
      case 0: { ASSERT_EQ(out[i].value(), 42u); break; }
      case 1: { ASSERT_EQ(out[i].value(), 41u); break; }
      case 2: { ASSERT_EQ(out[i].value(), 43u); break; }
      default: { ASSERT_FALSE(out[i].has_value()); break; }
    }
  }
  // Erase the duplicates one by one across the boundary; counts drop as
  // scanned through the stitched ScanRange.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(index.Erase(split));
  EXPECT_FALSE(index.Erase(split));
  size_t remaining = 0;
  index.ScanRange(split - 1, split + 1,
                  [&remaining](uint64_t, const uint64_t&) { ++remaining; },
                  /*hi_inclusive=*/true);
  EXPECT_EQ(remaining, 200u);
}

TEST(ShardedTest, SingleShardDegeneratesToOneIndex) {
  ShardedIndex<SegTree64> index(1);
  EXPECT_EQ(index.num_shards(), 1u);
  EXPECT_TRUE(index.splitters().empty());
  Rng rng(3);
  std::map<uint64_t, uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next();
    index.Insert(k, k / 2);
    oracle[k] = k / 2;
  }
  EXPECT_EQ(index.size(), oracle.size());
  std::vector<uint64_t> probes;
  for (const auto& [k, v] : oracle) probes.push_back(k);
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(out[i].value(), probes[i] / 2);
  }
  EXPECT_TRUE(index.Validate());
}


// --- one shard: the single-lock wrapper under concurrency ------------------

TEST(OneShardTest, SingleThreadBasics) {
  ShardedIndex<SegTree64> index(1);
  index.Insert(1, 10);
  index.Insert(2, 20);
  EXPECT_EQ(index.Find(1).value(), 10u);
  EXPECT_TRUE(index.Contains(2));
  EXPECT_FALSE(index.Contains(3));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Erase(1));
  EXPECT_EQ(index.size(), 1u);
  uint64_t sum = 0;
  index.ScanRange(0, 100, [&sum](uint64_t k, const uint64_t&) { sum += k; });
  EXPECT_EQ(sum, 2u);
  const size_t h = index.WithShardRead(
      0, [](const auto& tree) { return static_cast<size_t>(tree.height()); });
  EXPECT_EQ(h, 1u);
}

TEST(OneShardTest, AdoptsABuiltIndex) {
  SegTree64 tree;
  for (uint64_t k = 0; k < 5000; ++k) tree.Insert(k * 2, k);
  ShardedIndex<SegTree64> index(std::move(tree));
  EXPECT_EQ(index.num_shards(), 1u);
  EXPECT_EQ(index.size(), 5000u);
  EXPECT_EQ(index.Find(2468), std::optional<uint64_t>(1234));
  EXPECT_FALSE(index.Contains(1));
  // The adopted tree keeps serving writes and batched reads.
  index.Insert(1, 7);
  std::vector<uint64_t> probes = {1, 2, 3, 9998};
  std::vector<std::optional<uint64_t>> out(probes.size());
  index.FindBatch(probes.data(), probes.size(), out.data());
  EXPECT_EQ(out[0], std::optional<uint64_t>(7));
  EXPECT_EQ(out[1], std::optional<uint64_t>(1));
  EXPECT_FALSE(out[2].has_value());
  EXPECT_EQ(out[3], std::optional<uint64_t>(4999));
  EXPECT_TRUE(index.Validate());
}

TEST(OneShardTest, ConcurrentReadersWithWriter) {
  ShardedIndex<SegTree64> index(1);
  for (uint64_t k = 0; k < 10000; ++k) index.Insert(k, k);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      Rng rng(static_cast<uint64_t>(t) + 1);
      uint64_t reads = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = rng.NextBounded(10000);
        // Keys 0..9999 are never erased by the writer, only overwritten.
        if (!index.Contains(k)) {
          read_errors.fetch_add(1, std::memory_order_relaxed);
        }
        // On few cores, readers spinning on the shared lock starve the
        // writer behind glibc's reader-preferring rwlock; yielding
        // periodically keeps the test about interleaving, not about
        // scheduler-induced writer starvation.
        if (++reads % 64 == 0) std::this_thread::yield();
      }
    });
  }

  // Writer inserts a disjoint key range and overwrites existing values.
  const uint64_t writes = 2000 * static_cast<uint64_t>(StressScale());
  for (uint64_t i = 0; i < writes; ++i) {
    if (i % 2 == 0) {
      index.Insert(100000 + i, i);
    } else {
      index.Insert(i % 10000, i);
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_TRUE(index.Validate());
}

TEST(OneShardTest, ParallelWritersDisjointRanges) {
  ShardedIndex<Trie64> index(1);
  constexpr int kThreads = 4;
  const uint64_t kPerThread = 20000 * static_cast<uint64_t>(StressScale());
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&index, t, kPerThread]() {
      const uint64_t base = static_cast<uint64_t>(t) * kPerThread;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        index.Insert(base + i, base + i);
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(index.size(), kThreads * kPerThread);
  EXPECT_TRUE(index.Validate());
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t k = rng.NextBounded(kThreads * kPerThread);
    ASSERT_EQ(index.Find(k).value(), k);
  }
}

TEST(OneShardTest, MixedInsertEraseFromManyThreads) {
  ShardedIndex<BTree64> index(1);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    const int ops = 10000 * StressScale();
    workers.emplace_back([&index, t, ops]() {
      Rng rng(static_cast<uint64_t>(t) * 7 + 1);
      for (int i = 0; i < ops; ++i) {
        const uint64_t k = rng.NextBounded(512);
        if (rng.NextBounded(100) < 60) {
          index.Insert(k, static_cast<uint64_t>(i));
        } else {
          index.Erase(k);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_TRUE(index.Validate());
}

// --- epoch registry exhausted ----------------------------------------------

// Claims every free slot of the epoch registry (core/olc.h) from holder
// threads that stay pinned until destruction. A thread that has never
// pinned then finds no slot, so every read it makes must skip the
// lock-free rungs and take the shard's shared lock.
class ExhaustedEpochRegistry {
 public:
  ExhaustedEpochRegistry() {
    for (;;) {
      std::promise<bool> pinned;
      std::future<bool> got = pinned.get_future();
      holders_.emplace_back([this, pinned = std::move(pinned)]() mutable {
        olc::EpochGuard guard;
        pinned.set_value(guard.pinned());
        if (guard.pinned()) release_.wait();
      });
      if (!got.get()) break;
    }
  }
  ~ExhaustedEpochRegistry() {
    release_.count_down();
    for (auto& th : holders_) th.join();
  }
  ExhaustedEpochRegistry(const ExhaustedEpochRegistry&) = delete;
  ExhaustedEpochRegistry& operator=(const ExhaustedEpochRegistry&) = delete;

 private:
  std::latch release_{1};
  std::vector<std::thread> holders_;
};

void CheckReadsWithoutEpochSlot(size_t shards) {
  ShardedIndex<SegTree64> index(shards);
  const std::string prefix =
      "sharded_test.exhausted" + std::to_string(shards);
  index.EnableMetrics(prefix);
  const obs::IndexMetrics m = obs::IndexMetrics::Register(prefix);
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(21);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t k = rng.Next();
    index.Insert(k, k ^ 0xE90C4ULL);
    oracle[k] = k ^ 0xE90C4ULL;
  }
  std::vector<uint64_t> stored;
  for (const auto& [k, v] : oracle) stored.push_back(k);

  ExhaustedEpochRegistry registry;
  std::thread([&] {
    olc::EpochGuard probe;
    ASSERT_FALSE(probe.pinned()) << "registry not exhausted";
    // Every read takes the shared lock, so each records one hold time.
    uint64_t locked_reads = m.read_lock_ns->Count();

    for (int i = 0; i < 500; ++i) {
      const uint64_t k = i % 2 == 0 ? stored[rng.NextBounded(stored.size())]
                                    : rng.Next();
      const auto it = oracle.find(k);
      const auto got = index.Find(k);
      ASSERT_EQ(got.has_value(), it != oracle.end()) << "key " << k;
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second);
      }
      ASSERT_EQ(index.Contains(k), it != oracle.end()) << "key " << k;
    }
    EXPECT_EQ(m.read_lock_ns->Count() - locked_reads, 1000u);

    // A pipelined-size and a grouped-size batch: with 8 shards, 8192
    // uniform keys give every shard a sub-batch past UseGroupedDescent.
    for (const size_t batch : {size_t{100}, size_t{8192}}) {
      std::vector<uint64_t> probes(batch);
      for (size_t i = 0; i < batch; ++i) {
        probes[i] = i % 3 == 0 ? rng.Next()
                               : stored[rng.NextBounded(stored.size())];
      }
      std::vector<std::optional<uint64_t>> out(batch,
                                               std::optional<uint64_t>(1));
      locked_reads = m.read_lock_ns->Count();
      index.FindBatch(probes.data(), batch, out.data());
      EXPECT_GT(m.read_lock_ns->Count(), locked_reads) << "batch " << batch;
      for (size_t i = 0; i < batch; ++i) {
        const auto it = oracle.find(probes[i]);
        ASSERT_EQ(out[i].has_value(), it != oracle.end())
            << "batch " << batch << " i=" << i;
        if (out[i].has_value()) {
          ASSERT_EQ(*out[i], it->second);
        }
      }
    }

    // A window crossing every shard boundary.
    const uint64_t lo = 1ULL << 59;
    const uint64_t hi = ~0ULL - (1ULL << 59);
    std::vector<std::pair<uint64_t, uint64_t>> got;
    index.ScanRange(lo, hi, [&got](uint64_t k, const uint64_t& v) {
      got.emplace_back(k, v);
    });
    std::vector<std::pair<uint64_t, uint64_t>> want(
        oracle.lower_bound(lo), oracle.lower_bound(hi));
    ASSERT_EQ(got, want);
  }).join();
}

TEST(ShardedTest, ReadsTakeTheLockWhenEpochRegistryIsExhaustedOneShard) {
  CheckReadsWithoutEpochSlot(1);
}

TEST(ShardedTest, ReadsTakeTheLockWhenEpochRegistryIsExhaustedEightShards) {
  CheckReadsWithoutEpochSlot(8);
}

}  // namespace
}  // namespace simdtree
