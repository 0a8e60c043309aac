// Warm reads allocate nothing.
//
// The binary replaces the global operator new with one that counts the
// allocations of the calling thread, then reads a ShardedIndex the way a
// server does: after one warm-up pass over the same batches, FindBatch at
// every batch size (pipelined across shards, and grouped per shard at
// b = 4096) and Find must make zero heap allocations per call. Both the
// lock-free reads and, under SIMDTREE_FORCE_SHARD_LOCKS=1 (the
// read_alloc_test_force_locks entry), the locked rung are covered. A
// batch above kMaxRetainedBatchKeys gives its scratch back.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/sharded.h"
#include "gtest/gtest.h"
#include "segtree/segtree.h"
#include "util/rng.h"

namespace {

thread_local uint64_t tl_allocations = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++tl_allocations;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace simdtree {
namespace {

using SegTree64 = segtree::SegTree<uint64_t, uint64_t>;

constexpr size_t kKeys = 64 * 1024;
constexpr int kBatchesPerSize = 8;

// Heap allocations per FindBatch call of `batch` keys, counted over the
// second pass of the same kBatchesPerSize batches (the first warms the
// per-thread scratch up to their sizes).
double AllocationsPerBatch(const ShardedIndex<SegTree64>& index,
                           const std::vector<uint64_t>& stored, size_t batch,
                           Rng& rng) {
  std::vector<std::vector<uint64_t>> batches(kBatchesPerSize);
  for (auto& keys : batches) {
    keys.resize(batch);
    for (uint64_t& k : keys) {
      // Mostly hits, some misses.
      k = rng.NextBounded(4) == 0 ? rng.Next()
                                  : stored[rng.NextBounded(stored.size())];
    }
  }
  std::vector<std::optional<uint64_t>> out(batch);
  uint64_t allocations = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& keys : batches) {
      const uint64_t before = tl_allocations;
      index.FindBatch(keys.data(), batch, out.data());
      if (pass == 1) allocations += tl_allocations - before;
      for (size_t i = 0; i < batch; ++i) {
        const std::optional<uint64_t> want = index.Find(keys[i]);
        if (out[i] != want) {
          ADD_FAILURE() << "batch " << batch << " key " << keys[i];
          return -1;
        }
      }
    }
  }
  return static_cast<double>(allocations) / kBatchesPerSize;
}

void CheckWarmReadsAllocateNothing(size_t shards) {
  ShardedIndex<SegTree64> index(shards);
  Rng rng(shards * 31 + 7);
  std::vector<uint64_t> stored(kKeys);
  for (uint64_t& k : stored) {
    k = rng.Next();
    index.Insert(k, k / 3);
  }
  for (const size_t batch : {size_t{1}, size_t{11}, size_t{32},
                             size_t{4096}}) {
    EXPECT_EQ(AllocationsPerBatch(index, stored, batch, rng), 0.0)
        << shards << " shards, b=" << batch;
  }
  // Find, warm: one pass, then count a second.
  uint64_t allocations = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < 256; ++i) {
      const uint64_t before = tl_allocations;
      const std::optional<uint64_t> got = index.Find(stored[i]);
      if (pass == 1) allocations += tl_allocations - before;
      ASSERT_EQ(got, std::optional<uint64_t>(stored[i] / 3));
    }
  }
  EXPECT_EQ(allocations, 0u) << shards << " shards, Find";
}

TEST(ReadAllocTest, EightShardsWarmReadsAllocateNothing) {
  CheckWarmReadsAllocateNothing(8);
}

TEST(ReadAllocTest, OneShardWarmReadsAllocateNothing) {
  CheckWarmReadsAllocateNothing(1);
}

// Heap allocations of one FindBatch call over `keys` (out allocated
// outside the count).
uint64_t AllocationsOf(const ShardedIndex<SegTree64>& index,
                       const std::vector<uint64_t>& keys) {
  std::vector<std::optional<uint64_t>> out(keys.size());
  const uint64_t before = tl_allocations;
  index.FindBatch(keys.data(), keys.size(), out.data());
  return tl_allocations - before;
}

// A batch above kMaxRetainedBatchKeys frees the thread's scratch on
// return, so the next batch grows it again; a batch at the bound keeps
// it. Both the sharded scratch (8 shards) and the grouped engine's (one
// shard, whose share is the whole batch) are released.
TEST(ReadAllocTest, OversizedBatchReleasesScratch) {
  for (const size_t shards : {size_t{8}, size_t{1}}) {
    ShardedIndex<SegTree64> index(shards);
    Rng rng(shards * 17 + 3);
    std::vector<uint64_t> stored(kKeys);
    for (uint64_t& k : stored) {
      k = rng.Next();
      index.Insert(k, k / 3);
    }
    const auto batch = [&](size_t n) {
      std::vector<uint64_t> keys(n);
      for (uint64_t& k : keys) k = stored[rng.NextBounded(stored.size())];
      return keys;
    };
    const std::vector<uint64_t> at_bound = batch(kMaxRetainedBatchKeys);
    const std::vector<uint64_t> over = batch(kMaxRetainedBatchKeys + 1);
    AllocationsOf(index, at_bound);
    EXPECT_EQ(AllocationsOf(index, at_bound), 0u) << shards << " shards";
    AllocationsOf(index, over);
    EXPECT_GT(AllocationsOf(index, at_bound), 0u) << shards << " shards";
    EXPECT_EQ(AllocationsOf(index, at_bound), 0u) << shards << " shards";
  }
  // The grouped engine alone, through a tree's own FindBatchGrouped.
  SegTree64 tree;
  for (uint64_t k = 0; k < kKeys; ++k) tree.Insert(k * 3, k);
  std::vector<uint64_t> keys(kMaxRetainedBatchKeys + 1);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 5;
  std::vector<const uint64_t*> ptrs(keys.size());
  const auto grouped = [&](size_t n) {
    const uint64_t before = tl_allocations;
    tree.FindBatchGrouped(keys.data(), n, ptrs.data());
    return tl_allocations - before;
  };
  grouped(kMaxRetainedBatchKeys);
  EXPECT_EQ(grouped(kMaxRetainedBatchKeys), 0u);
  grouped(keys.size());
  EXPECT_GT(grouped(kMaxRetainedBatchKeys), 0u);
}

// The counter itself counts: a vector's growth is one allocation.
TEST(ReadAllocTest, CounterSeesAllocations) {
  const uint64_t before = tl_allocations;
  std::vector<int> v(100);
  EXPECT_EQ(tl_allocations - before, 1u);
  EXPECT_EQ(v.size(), 100u);
}

}  // namespace
}  // namespace simdtree
