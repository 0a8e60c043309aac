// Unit tests for the optimistic-lock-coupling primitives (core/olc.h),
// the NodePool's epoch-deferred reclamation (mem/arena.h), and the
// B+-tree's optimistic read paths against their locked twins.
//
// Everything here is tier-1: single-process, deterministic, fast. The
// multi-threaded differential suites live in olc_stress_test.cc.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "core/olc.h"
#include "gtest/gtest.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "segtree/segtree.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using btree::BPlusTree;

TEST(VersionWord, SeqlockProtocol) {
  olc::VersionWord w;
  const uint64_t v0 = w.ReadBegin();
  EXPECT_TRUE(olc::VersionWord::IsStable(v0));
  EXPECT_TRUE(w.Validate(v0));
  EXPECT_FALSE(w.IsLockedOrDead());

  w.Lock();
  EXPECT_TRUE(w.IsLockedOrDead());
  EXPECT_FALSE(olc::VersionWord::IsStable(w.ReadBegin()));
  EXPECT_FALSE(w.Validate(v0));  // writer in progress

  w.Unlock();
  EXPECT_FALSE(w.IsLockedOrDead());
  const uint64_t v1 = w.ReadBegin();
  EXPECT_TRUE(olc::VersionWord::IsStable(v1));
  EXPECT_EQ(v1, v0 + 2);       // one full write cycle advances by 2
  EXPECT_FALSE(w.Validate(v0));  // writer completed in between
  EXPECT_TRUE(w.Validate(v1));
}

TEST(VersionWord, MarkDeadIsPermanentlyOdd) {
  olc::VersionWord w;
  w.MarkDead();
  EXPECT_TRUE(w.IsLockedOrDead());
  const uint64_t dead = w.ReadBegin();
  EXPECT_FALSE(olc::VersionWord::IsStable(dead));
  // Idempotent: a second MarkDead must not flip the word back to even.
  w.MarkDead();
  EXPECT_TRUE(w.IsLockedOrDead());
  EXPECT_EQ(w.ReadBegin(), dead);
}

TEST(VersionWord, MarkDeadOnLockedNodeStaysOdd) {
  // The Dismiss-before-free invariant's backstop: freeing a node whose
  // guard still holds the lock leaves the word odd (the guard must
  // Dismiss first, but MarkDead alone must never create an even word).
  olc::VersionWord w;
  w.Lock();
  const uint64_t locked = w.ReadBegin();
  w.MarkDead();
  EXPECT_EQ(w.ReadBegin(), locked);
  EXPECT_TRUE(w.IsLockedOrDead());
}

TEST(Epoch, PinNestingAndAdvance) {
  olc::EpochManager& em = olc::EpochManager::Global();
  const uint64_t start = em.current();
  {
    olc::EpochGuard outer;
    ASSERT_TRUE(outer.pinned());
    EXPECT_LE(em.MinActive(), em.current());
    {
      olc::EpochGuard inner;  // nested pin on the same thread
      EXPECT_TRUE(inner.pinned());
      EXPECT_LE(em.MinActive(), em.current());
    }
    // Still pinned by the outer guard.
    EXPECT_NE(em.MinActive(), olc::EpochManager::kIdle);
  }
  EXPECT_EQ(em.MinActive(), olc::EpochManager::kIdle);
  EXPECT_TRUE(em.TryAdvance());
  EXPECT_EQ(em.current(), start + 1);
}

TEST(Epoch, LaggingPinBlocksAdvance) {
  olc::EpochManager& em = olc::EpochManager::Global();
  olc::EpochGuard guard;
  ASSERT_TRUE(guard.pinned());
  const uint64_t pinned_at = em.current();
  // A pin at the current epoch does not block the first advance...
  EXPECT_TRUE(em.TryAdvance());
  // ...but now the pin lags the global epoch, so reclamation of
  // anything freed at the new epoch must wait: no further advance.
  EXPECT_EQ(em.MinActive(), pinned_at);
  EXPECT_FALSE(em.TryAdvance());
}

TEST(NodePoolDeferred, EnableRequiresManager) {
  mem::NodePool pool(/*block_bytes=*/64);
  EXPECT_FALSE(pool.EnableDeferredReclamation(nullptr));
  EXPECT_FALSE(pool.deferred_enabled());
  EXPECT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
  EXPECT_TRUE(pool.deferred_enabled());
  // Idempotent.
  EXPECT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
}

TEST(NodePoolDeferred, NoReuseWhileReaderPinned) {
  mem::NodePool pool(/*block_bytes=*/64);
  ASSERT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));

  uint32_t slot = 0;
  void* block = pool.Alloc(&slot);
  ASSERT_NE(block, nullptr);
  std::memset(block, 0xAB, 64);

  olc::EpochGuard reader;
  ASSERT_TRUE(reader.pinned());
  pool.Free(slot);

  // The slot is quarantined, not recycled: its memory stays mapped (a
  // stale optimistic reader may still dereference it) and no new
  // allocation may alias it while this reader's pin is in flight.
  EXPECT_EQ(pool.DecodeOptimistic(slot), block);
  std::vector<uint32_t> taken;
  for (int i = 0; i < 64; ++i) {
    uint32_t s = 0;
    void* p = pool.Alloc(&s);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(s, slot) << "quarantined slot recycled under a pinned reader";
    taken.push_back(s);
  }
  const mem::ArenaStats pinned_stats = pool.Stats();
  EXPECT_GE(pinned_stats.deferred_blocks, 1u);
  for (const uint32_t s : taken) pool.Free(s);
}

TEST(NodePoolDeferred, ReuseAfterReadersAdvance) {
  mem::NodePool pool(/*block_bytes=*/64);
  olc::EpochManager& em = olc::EpochManager::Global();
  ASSERT_TRUE(pool.EnableDeferredReclamation(&em));

  uint32_t slot = 0;
  void* block = pool.Alloc(&slot);
  ASSERT_NE(block, nullptr);
  pool.Free(slot);

  // No reader in flight: after the epoch advances past the free, the
  // quarantine drains (Alloc runs TryAdvance+Purge itself) and the slot
  // re-enters circulation. Bounded loop: each Alloc advances at most
  // one epoch, the bucket needs MinActive() > its epoch.
  bool reused = false;
  std::vector<uint32_t> taken;
  for (int i = 0; i < 8 && !reused; ++i) {
    uint32_t s = 0;
    void* p = pool.Alloc(&s);
    ASSERT_NE(p, nullptr);
    if (s == slot) {
      reused = true;
      pool.Free(s);
      break;
    }
    taken.push_back(s);
  }
  EXPECT_TRUE(reused) << "freed slot never drained from quarantine";
  for (const uint32_t s : taken) pool.Free(s);
}

TEST(NodePoolDeferred, TornSlotDecodesToNull) {
  mem::NodePool pool(/*block_bytes=*/64);
  ASSERT_TRUE(pool.EnableDeferredReclamation(&olc::EpochManager::Global()));
  uint32_t slot = 0;
  ASSERT_NE(pool.Alloc(&slot), nullptr);
  // Garbage refs (as a torn optimistic load would produce) must decode
  // to nullptr, never fault: out-of-range slab index and out-of-range
  // block index within a live slab.
  EXPECT_EQ(pool.DecodeOptimistic(~uint32_t{0}), nullptr);
  EXPECT_EQ(pool.DecodeOptimistic(slot | (uint32_t{1} << 30)), nullptr);
}

// --- tree-level optimistic paths vs their locked twins ---------------------

using Tree = BPlusTree<uint64_t, uint64_t>;

uint64_t ValueOf(uint64_t k) { return k * 0x9E3779B97F4A7C15ULL + 1; }

// Every tree with trivially copyable keys and values arms lock-free
// reads: its pools always carve nodes from slabs.
template <typename T>
void ExpectArms() {
  T tree;
  EXPECT_FALSE(tree.concurrent_reads_enabled());
  EXPECT_TRUE(tree.EnableConcurrentReads());
  EXPECT_TRUE(tree.concurrent_reads_enabled());
  EXPECT_TRUE(tree.EnableConcurrentReads());  // idempotent
}

TEST(TreeOptimistic, TriviallyCopyablePayloadsArm) {
  ExpectArms<Tree>();
  ExpectArms<BPlusTree<uint32_t, uint32_t>>();
  ExpectArms<segtree::SegTree<uint64_t, uint64_t>>();
  ExpectArms<segtree::SegTree<uint32_t, uint64_t>>();
}

TEST(TreeOptimistic, FindMatchesLockedFind) {
  Tree tree;
  ASSERT_TRUE(tree.EnableConcurrentReads());
  constexpr uint64_t kN = 5000;
  for (uint64_t k = 0; k < kN; ++k) tree.Insert(k * 3, ValueOf(k * 3));
  for (uint64_t k = 0; k < kN / 2; ++k) tree.Erase(k * 6);

  for (uint64_t probe = 0; probe < kN * 3 + 5; ++probe) {
    std::optional<uint64_t> opt;
    ASSERT_EQ(tree.FindOptimistic(probe, &opt), olc::ReadResult::kOk);
    EXPECT_EQ(opt, tree.Find(probe)) << "key " << probe;
  }
  EXPECT_GE(tree.height_hint(), 1);
}

TEST(TreeOptimistic, BatchEnginesMatchLockedFind) {
  Tree tree;
  ASSERT_TRUE(tree.EnableConcurrentReads());
  constexpr uint64_t kN = 4096;
  for (uint64_t k = 0; k < kN; ++k) tree.Insert(k * 7, ValueOf(k * 7));

  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < kN * 7 + 10; k += 3) keys.push_back(k);
  std::vector<std::optional<uint64_t>> out(keys.size());
  std::vector<uint32_t> failed;

  Tree::FindBatchAcross([&tree](uint32_t) { return &tree; }, keys.data(),
                         nullptr, keys.size(), out.data(), &failed);
  EXPECT_TRUE(failed.empty());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], tree.Find(keys[i])) << "pipelined key " << keys[i];
  }

  std::fill(out.begin(), out.end(), std::nullopt);
  failed.clear();
  tree.FindBatchGroupedOptimistic(keys.data(), keys.size(), out.data(),
                                  &failed);
  EXPECT_TRUE(failed.empty());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], tree.Find(keys[i])) << "grouped key " << keys[i];
  }
}

// A writer inserts and erases odd keys between the stored even keys, so
// it relinearizes the leaves (and splits them) that clustered grouped
// batches are reading: every answer is correct, or reported failed and
// correct on the per-key retry.
TEST(TreeOptimistic, GroupedBatchUnderRelinearizingWriter) {
  using Seg = segtree::SegTree<uint64_t, uint64_t>;
  Seg tree;
  ASSERT_TRUE(tree.EnableConcurrentReads());
  constexpr uint64_t kN = 20000;
  for (uint64_t k = 1; k <= kN; ++k) tree.Insert(2 * k, ValueOf(2 * k));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(5);
    std::vector<uint64_t> live;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t odd = 2 * rng.NextBounded(kN) + 1;
      tree.Insert(odd, ValueOf(odd));
      live.push_back(odd);
      if (live.size() > 512) {
        tree.Erase(live.front());
        live.erase(live.begin());
      }
    }
  });
  Rng rng(6);
  std::vector<uint64_t> probes(512);
  std::vector<std::optional<uint64_t>> out(probes.size());
  std::vector<uint32_t> failed;
  size_t wrong = 0;
  size_t retried = 0;
  for (int batch = 0; batch < 300 && wrong == 0; ++batch) {
    for (size_t i = 0; i < probes.size(); i += 16) {
      const uint64_t first = 2 * (1 + rng.NextBounded(kN - 16));
      for (size_t j = 0; j < 16; ++j) probes[i + j] = first + 2 * j;
    }
    std::fill(out.begin(), out.end(), std::nullopt);
    failed.clear();
    {
      olc::EpochGuard guard;
      tree.FindBatchGroupedOptimistic(probes.data(), probes.size(),
                                      out.data(), &failed);
      for (const uint32_t i : failed) {
        while (tree.FindOptimistic(probes[i], &out[i]) !=
               olc::ReadResult::kOk) {
        }
      }
    }
    retried += failed.size();
    for (size_t i = 0; i < probes.size(); ++i) {
      wrong += out[i] != std::optional<uint64_t>(ValueOf(probes[i]));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(wrong, 0u);
  std::printf("retried %zu of 300 batches x %zu keys\n", retried,
              probes.size());
}

TEST(TreeOptimistic, ScanMatchesLockedScan) {
  Tree tree;
  ASSERT_TRUE(tree.EnableConcurrentReads());
  constexpr uint64_t kN = 3000;
  for (uint64_t k = 0; k < kN; ++k) tree.Insert(k * 2, ValueOf(k * 2));
  // Duplicates at a few keys: the resume protocol must count them.
  for (int i = 0; i < 5; ++i) tree.Insert(100, ValueOf(100));

  for (const bool inclusive : {false, true}) {
    std::vector<std::pair<uint64_t, uint64_t>> locked, optimistic;
    tree.ScanRange(
        50, 4000,
        [&](uint64_t k, const uint64_t& v) { locked.emplace_back(k, v); },
        inclusive);
    uint64_t resume = 50;
    uint32_t skip = 0;
    ASSERT_EQ(tree.ScanRangeOptimistic(
                  4000, inclusive, &resume, &skip,
                  [&](uint64_t k, const uint64_t& v) {
                    optimistic.emplace_back(k, v);
                  }),
              olc::ReadResult::kOk);
    EXPECT_EQ(optimistic, locked) << "inclusive=" << inclusive;
  }
}

TEST(TreeOptimistic, ClearThenReuseStaysConsistent) {
  Tree tree;
  ASSERT_TRUE(tree.EnableConcurrentReads());
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) tree.Insert(k, ValueOf(k + round));
    tree.Clear();
    EXPECT_EQ(tree.size(), 0u);
    std::optional<uint64_t> opt;
    ASSERT_EQ(tree.FindOptimistic(7, &opt), olc::ReadResult::kOk);
    EXPECT_FALSE(opt.has_value());
  }
  for (uint64_t k = 0; k < 2000; ++k) tree.Insert(k, ValueOf(k));
  std::optional<uint64_t> opt;
  ASSERT_EQ(tree.FindOptimistic(1234, &opt), olc::ReadResult::kOk);
  EXPECT_EQ(opt, std::optional<uint64_t>(ValueOf(1234)));
}

TEST(OlcMetricsTest, RegistersAndPublishes) {
  const obs::OlcMetrics m = obs::OlcMetrics::Register();
  ASSERT_NE(m.read_retries, nullptr);
  ASSERT_NE(m.fallback_acquisitions, nullptr);
  obs::PublishEpochStats();
  // The global epoch starts at 1 and only ever advances.
  EXPECT_GE(m.epoch_current->Get(), 1.0);
  EXPECT_GE(m.epoch_deferred_slabs->Get(), 0.0);
  EXPECT_GE(m.epoch_deferred_blocks->Get(), 0.0);
}

TEST(ForceShardLocks, MatchesEnvironment) {
  const char* env = std::getenv("SIMDTREE_FORCE_SHARD_LOCKS");
  const bool expect = env != nullptr && env[0] != '\0' && env[0] != '0';
  EXPECT_EQ(olc::ForceShardLocks(), expect);
}

}  // namespace
}  // namespace simdtree
