// Multi-threaded differential stress for the lock-free read path
// (optimistic lock coupling + epoch reclamation, core/olc.h): readers
// run genuinely concurrent with writers — no lock between a reader's
// descent and a writer's split — so this suite is the one that must
// pass under ThreadSanitizer (the CI tsan job builds it) and it soaks
// 10x under SIMDTREE_STRESS=1 (ctest label `stress`).
//
// Scheme mirrors concurrent_stress_test: writer threads own disjoint
// congruence classes of the key space, so the quiescent state is
// interleaving-independent and a mutex-guarded std::map oracle
// converges to the exact expected contents. Values are a pure function
// of the key (self-certifying), so readers can validate every pair they
// observe mid-flight without knowing the interleaving:
//   * Find/FindBatch: a hit must carry ValueOf(key); sentinel keys that
//     are never erased must always hit.
//   * ScanRange racing splits: delivered keys must be ascending and
//     in-window, every pair self-certifying, and all sentinels inside
//     the window must appear exactly once.
// At each quiescent point the full index is diffed against the oracle.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "core/sharded.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using Tree = btree::BPlusTree<uint64_t, uint64_t>;

// 10x everything when SIMDTREE_STRESS is set (the ctest `stress` label).
int StressScale() {
  const char* env = std::getenv("SIMDTREE_STRESS");
  return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 10 : 1;
}

uint64_t ValueOf(uint64_t key) {
  return (key ^ 0xC0FFEE0DDBA11ULL) * 0x9E3779B97F4A7C15ULL;
}

constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr uint64_t kKeySpace = 1 << 16;

// Mutex-guarded oracle, updated alongside every index mutation. Each
// writer owns key % kWriters == id, so oracle updates commute across
// writers and the quiescent diff is exact. The tree is a multimap but
// writers here never insert a live duplicate (they erase first), so the
// oracle stays a map.
struct Oracle {
  std::mutex mu;
  std::map<uint64_t, uint64_t> map;
};

template <typename IndexLike>
void WriterLoop(IndexLike& index, Oracle& oracle, int id, int ops,
                uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    uint64_t key = rng.NextBounded(kKeySpace);
    key -= key % kWriters;
    key += static_cast<uint64_t>(id);
    const bool insert = rng.NextBounded(100) < 60;
    if (insert) {
      const bool was_live = index.Erase(key);  // no live duplicates
      index.Insert(key, ValueOf(key));
      std::lock_guard<std::mutex> lock(oracle.mu);
      if (!was_live) oracle.map.emplace(key, ValueOf(key));
      else oracle.map[key] = ValueOf(key);
    } else {
      const bool erased = index.Erase(key);
      std::lock_guard<std::mutex> lock(oracle.mu);
      if (erased) oracle.map.erase(key);
    }
  }
}

// Sentinels: keys the writers never touch (key % kWriters has no owner
// gap, so carve them out of the top of the key space instead). They are
// inserted before the threads start and must be visible to every read
// forever.
std::vector<uint64_t> MakeSentinels() {
  std::vector<uint64_t> s;
  for (uint64_t k = kKeySpace; k < kKeySpace + 64; ++k) s.push_back(k);
  return s;
}

template <typename IndexLike>
void ReaderLoop(const IndexLike& index, const std::vector<uint64_t>& sentinels,
                std::atomic<bool>& stop, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> batch(48);
  std::vector<std::optional<uint64_t>> out(batch.size());
  while (!stop.load(std::memory_order_relaxed)) {
    // Single-key reads: hits must self-certify, sentinels must hit.
    for (int i = 0; i < 32; ++i) {
      const uint64_t k = rng.NextBounded(kKeySpace);
      const auto v = index.Find(k);
      if (v.has_value()) {
        ASSERT_EQ(*v, ValueOf(k)) << "torn value for key " << k;
      }
    }
    const uint64_t sentinel =
        sentinels[rng.NextBounded(sentinels.size())];
    const auto sv = index.Find(sentinel);
    ASSERT_TRUE(sv.has_value()) << "sentinel " << sentinel << " vanished";
    ASSERT_EQ(*sv, ValueOf(sentinel));

    // Batched reads through the optimistic engines.
    for (auto& b : batch) b = rng.NextBounded(kKeySpace + 64);
    batch[0] = sentinels[rng.NextBounded(sentinels.size())];
    index.FindBatch(batch.data(), batch.size(), out.data());
    for (size_t j = 0; j < batch.size(); ++j) {
      if (out[j].has_value()) {
        ASSERT_EQ(*out[j], ValueOf(batch[j]))
            << "torn batch value for key " << batch[j];
      }
    }
    ASSERT_TRUE(out[0].has_value()) << "sentinel miss in batch";

    // Range scan racing splits: ascending, in-window, self-certifying,
    // and every sentinel in the window delivered exactly once.
    const uint64_t lo = rng.NextBounded(kKeySpace);
    const uint64_t hi = lo + 1 + rng.NextBounded(4096) + 64;
    uint64_t prev = 0;
    bool first = true;
    size_t sentinel_hits = 0;
    index.ScanRange(lo, hi, [&](uint64_t k, const uint64_t& v) {
      ASSERT_GE(k, lo);
      ASSERT_LT(k, hi);
      if (!first) {
        ASSERT_GE(k, prev) << "scan went backwards";
      }
      first = false;
      prev = k;
      ASSERT_EQ(v, ValueOf(k)) << "torn scan value for key " << k;
      if (k >= kKeySpace) ++sentinel_hits;
    });
    size_t expected_sentinels = 0;
    for (uint64_t s : sentinels) {
      if (s >= lo && s < hi) ++expected_sentinels;
    }
    ASSERT_EQ(sentinel_hits, expected_sentinels)
        << "scan [" << lo << "," << hi << ") missed or duplicated a "
        << "stable sentinel";
  }
}

template <typename IndexLike>
void QuiescentDiff(const IndexLike& index, Oracle& oracle,
                   const std::vector<uint64_t>& sentinels) {
  std::map<uint64_t, uint64_t> expected;
  {
    std::lock_guard<std::mutex> lock(oracle.mu);
    expected = oracle.map;
  }
  for (uint64_t s : sentinels) expected.emplace(s, ValueOf(s));
  ASSERT_EQ(index.size(), expected.size());
  // Full stitched scan == oracle.
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  index.ScanRange(0, kKeySpace + 64,
                  [&](uint64_t k, const uint64_t& v) {
                    scanned.emplace_back(k, v);
                  });
  ASSERT_EQ(scanned.size(), expected.size());
  size_t i = 0;
  for (const auto& [k, v] : expected) {
    ASSERT_EQ(scanned[i].first, k);
    ASSERT_EQ(scanned[i].second, v);
    ++i;
  }
  // Per-key Find over every live key plus guaranteed misses.
  for (const auto& [k, v] : expected) {
    const auto got = index.Find(k);
    ASSERT_TRUE(got.has_value()) << "live key " << k << " missing";
    ASSERT_EQ(*got, v);
  }
  for (uint64_t k = kKeySpace + 64; k < kKeySpace + 96; ++k) {
    ASSERT_FALSE(index.Find(k).has_value());
  }
}

template <typename IndexLike>
void RunDifferential(IndexLike& index, int rounds, int ops_per_round) {
  Oracle oracle;
  const std::vector<uint64_t> sentinels = MakeSentinels();
  for (uint64_t s : sentinels) {
    index.Insert(s, ValueOf(s));
  }
  for (int round = 0; round < rounds; ++round) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int w = 0; w < kWriters; ++w) {
      pool.emplace_back([&, w] {
        WriterLoop(index, oracle, w, ops_per_round,
                   0xABCD + static_cast<uint64_t>(round) * 131 +
                       static_cast<uint64_t>(w));
      });
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        ReaderLoop(index, sentinels, stop,
                   0x1234 + static_cast<uint64_t>(round) * 977 +
                       static_cast<uint64_t>(r));
      });
    }
    for (auto& th : pool) th.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : readers) th.join();
    QuiescentDiff(index, oracle, sentinels);
  }
}

TEST(OlcStress, ShardedDifferential) {
  const int scale = StressScale();
  std::vector<uint64_t> sample;
  for (uint64_t k = 0; k < kKeySpace + 64; k += 97) sample.push_back(k);
  ShardedIndex<Tree> index(
      4, ShardedIndex<Tree>::SplittersFromSample(sample.data(),
                                                 sample.size(), 4));
  RunDifferential(index, /*rounds=*/2 * scale, /*ops_per_round=*/4000);
}

TEST(OlcStress, OneShardDifferential) {
  const int scale = StressScale();
  ShardedIndex<Tree> index(1);
  RunDifferential(index, /*rounds=*/2 * scale, /*ops_per_round=*/4000);
}

// Reclamation churn: writers bulk-erase and re-insert whole key blocks
// (forcing merges, frees, quarantine traffic, and slab-level reuse)
// while readers stay in flight. Any use-after-reclaim surfaces as a
// torn (non-self-certifying) value, a fault, or a TSan report.
TEST(OlcStress, EpochReclamationChurn) {
  const int scale = StressScale();
  ShardedIndex<Tree> index(1);
  const std::vector<uint64_t> sentinels = MakeSentinels();
  for (uint64_t s : sentinels) index.Insert(s, ValueOf(s));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLoop(index, sentinels, stop, 0x7777 + static_cast<uint64_t>(r));
    });
  }
  const int churns = 20 * scale;
  for (int c = 0; c < churns; ++c) {
    const uint64_t base = (static_cast<uint64_t>(c) % 8) * 4096;
    for (uint64_t k = base; k < base + 4096; ++k) {
      index.Insert(k, ValueOf(k));
    }
    for (uint64_t k = base; k < base + 4096; ++k) {
      index.Erase(k);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  for (uint64_t s : sentinels) {
    const auto v = index.Find(s);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, ValueOf(s));
  }
  ASSERT_EQ(index.size(), sentinels.size());
}

}  // namespace
}  // namespace simdtree
