// Seg-Tree tests: the SIMD-searched tree must behave exactly like the
// baseline B+-Tree (same frame, different key store), across layouts,
// storage policies, key types, and randomized mutation workloads.

#include "segtree/segtree.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "segtree/seg_key_store.h"
#include "util/rng.h"

namespace simdtree::segtree {
namespace {

using kary::Layout;
using kary::Storage;

// --- SegKeyStore unit tests -------------------------------------------------

// Key storage for a store outside a tree: the slots a node block reserves.
template <typename Key, typename Context>
std::vector<Key> Slots(const Context& ctx) {
  return std::vector<Key>(static_cast<size_t>(ctx.key_storage_slots()));
}

TEST(SegKeyStoreTest, AppendFastPathMatchesReordering) {
  using Store = SegKeyStore<int32_t>;
  Store::Context ctx(100, Layout::kBreadthFirst, Storage::kTruncated);
  auto appended_keys = Slots<int32_t>(ctx);
  auto reordered_keys = Slots<int32_t>(ctx);
  Store appended(ctx, appended_keys.data());
  Store reordered(ctx, reordered_keys.data());
  std::vector<int32_t> sorted;
  for (int32_t i = 0; i < 100; ++i) {
    appended.InsertAt(appended.count(), i * 2);  // append path
    sorted.push_back(i * 2);
    reordered.AssignSorted(sorted.data(), static_cast<int64_t>(sorted.size()));
    ASSERT_EQ(appended.count(), reordered.count());
    ASSERT_EQ(appended.stored_slots(), reordered.stored_slots());
    for (int64_t p = 0; p < appended.count(); ++p) {
      ASSERT_EQ(appended.At(p), reordered.At(p)) << "i=" << i << " p=" << p;
    }
    for (int32_t probe = -1; probe <= i * 2 + 1; ++probe) {
      ASSERT_EQ(appended.UpperBound(probe), reordered.UpperBound(probe));
    }
  }
}

TEST(SegKeyStoreTest, MiddleInsertReordersCorrectly) {
  using Store = SegKeyStore<int64_t>;
  Store::Context ctx(50, Layout::kBreadthFirst, Storage::kTruncated);
  auto keys = Slots<int64_t>(ctx);
  Store store(ctx, keys.data());
  std::vector<int64_t> model;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const int64_t k = static_cast<int64_t>(rng.NextBounded(1000));
    const int64_t pos = std::upper_bound(model.begin(), model.end(), k) -
                        model.begin();
    store.InsertAt(pos, k);
    model.insert(model.begin() + pos, k);
    for (int64_t p = 0; p < store.count(); ++p) {
      ASSERT_EQ(store.At(p), model[static_cast<size_t>(p)]);
    }
  }
}

TEST(SegKeyStoreTest, RemoveMaxFastPathAndMiddleRemove) {
  using Store = SegKeyStore<uint16_t>;
  Store::Context ctx(60, Layout::kBreadthFirst, Storage::kTruncated);
  auto keys = Slots<uint16_t>(ctx);
  Store store(ctx, keys.data());
  std::vector<uint16_t> model;
  for (uint16_t i = 0; i < 60; ++i) {
    store.InsertAt(i, static_cast<uint16_t>(i * 3));
    model.push_back(static_cast<uint16_t>(i * 3));
  }
  Rng rng(4);
  while (!model.empty()) {
    const int64_t pos =
        static_cast<int64_t>(rng.NextBounded(model.size()));
    store.RemoveAt(pos);
    model.erase(model.begin() + static_cast<ptrdiff_t>(pos));
    ASSERT_EQ(store.count(), static_cast<int64_t>(model.size()));
    for (size_t p = 0; p < model.size(); ++p) {
      ASSERT_EQ(store.At(static_cast<int64_t>(p)), model[p]);
    }
  }
}

TEST(SegKeyStoreTest, MoveSuffixAndAppendFrom) {
  using Store = SegKeyStore<int32_t>;
  Store::Context ctx(40, Layout::kDepthFirst, Storage::kPerfect);
  auto a_keys = Slots<int32_t>(ctx);
  auto b_keys = Slots<int32_t>(ctx);
  Store a(ctx, a_keys.data());
  std::vector<int32_t> keys;
  for (int32_t i = 0; i < 30; ++i) keys.push_back(i * 5);
  a.AssignSorted(keys.data(), 30);
  Store b(ctx, b_keys.data());
  a.MoveSuffixTo(b, 18);
  EXPECT_EQ(a.count(), 18);
  EXPECT_EQ(b.count(), 12);
  for (int64_t p = 0; p < 18; ++p) ASSERT_EQ(a.At(p), p * 5);
  for (int64_t p = 0; p < 12; ++p) ASSERT_EQ(b.At(p), (18 + p) * 5);
  a.AppendFrom(b);
  EXPECT_EQ(a.count(), 30);
  EXPECT_EQ(b.count(), 0);
  for (int64_t p = 0; p < 30; ++p) ASSERT_EQ(a.At(p), p * 5);
}

// Every relinearizing write stores the scratch vector's pointers, and
// every search loads the fields before it (the layout's permutation in
// At()). Wherever a tree's make_unique places the Context, no field a
// search reads may share the scratch vector's cache line.
TEST(SegKeyStoreTest, ScratchHasItsOwnCacheLine) {
  using Store = SegKeyStore<uint64_t>;
  static_assert(alignof(Store::Context) % mem::kCacheLine == 0);
  const auto ctx = std::make_unique<Store::Context>(
      242, Layout::kBreadthFirst, Storage::kTruncated);
  const auto line = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) / mem::kCacheLine;
  };
  const auto last_line = [&](const auto& field) {
    return line(reinterpret_cast<const char*>(&field) + sizeof(field) - 1);
  };
  const uintptr_t scratch = line(&ctx->scratch);
  EXPECT_EQ(last_line(ctx->scratch), scratch);
  EXPECT_LT(last_line(ctx->capacity), scratch);
  EXPECT_LT(last_line(ctx->layout_kind), scratch);
  EXPECT_LT(last_line(ctx->storage), scratch);
  EXPECT_LT(last_line(ctx->layout), scratch);
}

// --- SegTree end-to-end tests ------------------------------------------------

template <typename TreeT>
void RunModelWorkload(TreeT& tree, uint64_t seed, int key_range, int ops) {
  std::multimap<int64_t, int64_t> model;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const int64_t k = static_cast<int64_t>(
        rng.NextBounded(static_cast<uint64_t>(key_range)));
    if (rng.NextBounded(100) < 60) {
      tree.Insert(k, op);
      model.emplace(k, op);
    } else {
      const bool et = tree.Erase(k);
      auto it = model.find(k);
      const bool em = it != model.end();
      if (em) model.erase(it);
      ASSERT_EQ(et, em) << "op " << op;
    }
    if (op % 128 == 0) {
      ASSERT_TRUE(tree.Validate()) << "op " << op;
    }
  }
  ASSERT_TRUE(tree.Validate());
  ASSERT_EQ(tree.size(), model.size());
  for (int64_t k = 0; k < key_range; ++k) {
    ASSERT_EQ(tree.Count(k), model.count(k)) << "key " << k;
  }
}

TEST(SegTreeTest, BreadthFirstRandomWorkload) {
  SegTree<int64_t, int64_t, Layout::kBreadthFirst> t(8);
  RunModelWorkload(t, 1, 500, 4000);
}

TEST(SegTreeTest, DepthFirstRandomWorkload) {
  SegTree<int64_t, int64_t, Layout::kDepthFirst> t(8);
  RunModelWorkload(t, 2, 500, 4000);
}

TEST(SegTreeTest, PerfectStorageRandomWorkload) {
  SegTree<int64_t, int64_t, Layout::kBreadthFirst> t(10, Storage::kPerfect);
  RunModelWorkload(t, 3, 200, 3000);
}

TEST(SegTreeTest, SmallKeyTypeFullDomain) {
  // 8-bit keys, k = 17: a single node holds the whole domain run.
  SegTree<int8_t, int32_t> t(254);
  for (int v = -128; v < 128; ++v) {
    t.Insert(static_cast<int8_t>(v), v * 10);
  }
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.height(), 2);  // 256 keys > one node's 254
  for (int v = -128; v < 128; ++v) {
    ASSERT_EQ(t.Find(static_cast<int8_t>(v)).value(), v * 10);
  }
}

TEST(SegTreeTest, PaperConfigAscendingBuildAndProbe) {
  // 32-bit keys with the Table 3 capacity (338); ascending build exercises
  // the append fast path in every node.
  SegTree<int32_t, int32_t> t;
  constexpr int32_t kN = 100000;
  for (int32_t i = 0; i < kN; ++i) t.Insert(i, i);
  ASSERT_TRUE(t.Validate());
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const int32_t probe = static_cast<int32_t>(rng.NextBounded(kN));
    ASSERT_EQ(t.Find(probe).value(), probe);
  }
  EXPECT_FALSE(t.Contains(kN));
  EXPECT_FALSE(t.Contains(-1));
}

TEST(SegTreeTest, BulkLoadMatchesInserts) {
  std::vector<uint64_t> keys(20000);
  std::vector<int64_t> values(20000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint64_t>(i) * 7;
    values[i] = static_cast<int64_t>(i);
  }
  auto loaded = SegTree<uint64_t, int64_t>::BulkLoad(
      keys.data(), values.data(), keys.size());
  ASSERT_TRUE(loaded.Validate());
  EXPECT_EQ(loaded.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 13) {
    ASSERT_EQ(loaded.Find(keys[i]).value(), values[i]);
    ASSERT_FALSE(loaded.Contains(keys[i] + 1));
  }
}

TEST(SegTreeTest, AgreesWithBaselineOnSameWorkload) {
  btree::BPlusTree<int16_t, int32_t> baseline(40);
  SegTree<int16_t, int32_t, Layout::kBreadthFirst> bf(40);
  SegTree<int16_t, int32_t, Layout::kDepthFirst> df(40);
  Rng rng(11);
  for (int op = 0; op < 5000; ++op) {
    const int16_t k = static_cast<int16_t>(rng.Next());
    const int32_t v = static_cast<int32_t>(op);
    if (rng.NextBounded(100) < 70) {
      baseline.Insert(k, v);
      bf.Insert(k, v);
      df.Insert(k, v);
    } else {
      const bool a = baseline.Erase(k);
      const bool b = bf.Erase(k);
      const bool c = df.Erase(k);
      ASSERT_EQ(a, b);
      ASSERT_EQ(a, c);
    }
  }
  ASSERT_EQ(baseline.size(), bf.size());
  ASSERT_EQ(baseline.size(), df.size());
  ASSERT_TRUE(bf.Validate());
  ASSERT_TRUE(df.Validate());
  for (int v = -32768; v < 32768; v += 17) {
    const int16_t k = static_cast<int16_t>(v);
    ASSERT_EQ(baseline.Contains(k), bf.Contains(k)) << v;
    ASSERT_EQ(baseline.Count(k), df.Count(k)) << v;
  }
}

TEST(SegTreeTest, RangeScansMatchBaseline) {
  btree::BPlusTree<uint32_t, uint32_t> baseline(16);
  SegTree<uint32_t, uint32_t> seg(16);
  Rng rng(13);
  for (int i = 0; i < 3000; ++i) {
    const uint32_t k = static_cast<uint32_t>(rng.NextBounded(10000));
    baseline.Insert(k, k);
    seg.Insert(k, k);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBounded(10000));
    const uint32_t hi = lo + static_cast<uint32_t>(rng.NextBounded(2000));
    std::vector<uint32_t> a, b;
    baseline.ScanRange(lo, hi, [&](uint32_t k, uint32_t) { a.push_back(k); });
    seg.ScanRange(lo, hi, [&](uint32_t k, uint32_t) { b.push_back(k); });
    ASSERT_EQ(a, b) << "lo=" << lo << " hi=" << hi;
  }
}

TEST(SegTreeTest, AllEvalPoliciesProduceIdenticalTrees) {
  SegTree<int32_t, int32_t, Layout::kBreadthFirst, simd::BitShiftEval> a(12);
  SegTree<int32_t, int32_t, Layout::kBreadthFirst, simd::SwitchCaseEval> b(12);
  SegTree<int32_t, int32_t, Layout::kBreadthFirst, simd::PopcountEval> c(12);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const int32_t k = static_cast<int32_t>(rng.NextBounded(700));
    a.Insert(k, i);
    b.Insert(k, i);
    c.Insert(k, i);
  }
  for (int32_t k = 0; k < 700; ++k) {
    ASSERT_EQ(a.Count(k), b.Count(k));
    ASSERT_EQ(b.Count(k), c.Count(k));
  }
}

TEST(SegTreeTest, ScalarBackendBehavesLikeSse) {
  SegTree<int64_t, int64_t, Layout::kBreadthFirst, simd::PopcountEval,
          simd::Backend::kScalar>
      scalar_tree(8);
  RunModelWorkload(scalar_tree, 19, 300, 3000);
}

TEST(SegTreeTest, TypeMaxKeysCollideWithPadding) {
  // Keys equal to the padding value must still be stored and found.
  SegTree<uint8_t, int32_t> t(20);
  for (int i = 0; i < 10; ++i) t.Insert(255, i);
  t.Insert(0, -1);
  t.Insert(254, -2);
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.Count(255), 10u);
  EXPECT_TRUE(t.Contains(0));
  EXPECT_TRUE(t.Contains(254));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(t.Erase(255));
  EXPECT_FALSE(t.Contains(255));
  EXPECT_EQ(t.size(), 2u);
}

}  // namespace
}  // namespace simdtree::segtree
