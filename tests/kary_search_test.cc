// k-ary SIMD search must return std::upper_bound positions for every key
// type, layout, storage policy, bitmask-evaluation algorithm, backend, and
// a wide range of sizes — including duplicates, type extremes, and probes
// outside the stored key range.

#include "kary/kary_search.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "kary/batch_search.h"
#include "kary/linearize.h"
#include "util/rng.h"

namespace simdtree::kary {
namespace {

template <typename T>
struct Fixture {
  std::vector<T> sorted;
  std::vector<T> lin;
  KaryShape shape;
  int64_t stored = 0;

  Fixture(std::vector<T> keys, Layout layout, Storage storage)
      : sorted(std::move(keys)),
        shape(KaryShape::For(simd::LaneTraits<T>::kArity,
                             sorted.empty() ? 1 : sorted.size())) {
    const KaryLayout kl(shape, layout);
    stored = kl.StoredSlots(static_cast<int64_t>(sorted.size()), storage);
    lin.resize(static_cast<size_t>(stored));
    kl.Linearize(sorted.data(), static_cast<int64_t>(sorted.size()),
                 lin.data(), stored, PadValue<T>());
  }

  int64_t ReferenceUpperBound(T v) const {
    return std::upper_bound(sorted.begin(), sorted.end(), v) -
           sorted.begin();
  }
};

template <typename T, typename Eval, simd::Backend B>
void CheckAllConfigs(const std::vector<T>& keys,
                     const std::vector<T>& probes) {
  // Breadth-first: perfect and truncated storage.
  for (Storage storage : {Storage::kPerfect, Storage::kTruncated}) {
    Fixture<T> f(keys, Layout::kBreadthFirst, storage);
    for (T v : probes) {
      const int64_t got = UpperBoundBf<T, Eval, B>(
          f.lin.data(), f.stored, static_cast<int64_t>(keys.size()), v);
      ASSERT_EQ(got, f.ReferenceUpperBound(v))
          << "bf storage=" << (storage == Storage::kPerfect ? "perfect"
                                                            : "truncated")
          << " n=" << keys.size() << " v=" << static_cast<int64_t>(v);
    }
  }
  // Depth-first: perfect storage only.
  Fixture<T> f(keys, Layout::kDepthFirst, Storage::kPerfect);
  for (T v : probes) {
    const int64_t got = UpperBoundDf<T, Eval, B>(
        f.lin.data(), f.stored, static_cast<int64_t>(keys.size()), v);
    ASSERT_EQ(got, f.ReferenceUpperBound(v))
        << "df n=" << keys.size() << " v=" << static_cast<int64_t>(v);
  }
}

template <typename T>
std::vector<T> MakeProbes(const std::vector<T>& keys, Rng& rng) {
  std::vector<T> probes = {std::numeric_limits<T>::min(),
                           std::numeric_limits<T>::max(), T{0}};
  for (T k : keys) {
    probes.push_back(k);
    if (k != std::numeric_limits<T>::min())
      probes.push_back(static_cast<T>(k - 1));
    if (k != std::numeric_limits<T>::max())
      probes.push_back(static_cast<T>(k + 1));
  }
  for (int i = 0; i < 64; ++i) probes.push_back(static_cast<T>(rng.Next()));
  return probes;
}

template <typename T>
class KarySearchTypedTest : public testing::Test {};

using KeyTypes = testing::Types<int8_t, uint8_t, int16_t, uint16_t, int32_t,
                                uint32_t, int64_t, uint64_t>;
TYPED_TEST_SUITE(KarySearchTypedTest, KeyTypes);

TYPED_TEST(KarySearchTypedTest, MatchesStdUpperBoundAcrossSizes) {
  using T = TypeParam;
  Rng rng(2024);
  for (int64_t n :
       {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7},
        int64_t{15}, int64_t{16}, int64_t{17}, int64_t{31}, int64_t{64},
        int64_t{100}, int64_t{127}, int64_t{200}}) {
    std::vector<T> keys(static_cast<size_t>(n));
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    std::sort(keys.begin(), keys.end());
    const auto probes = MakeProbes<T>(keys, rng);
    CheckAllConfigs<T, simd::PopcountEval, simd::kDefaultBackend>(keys,
                                                                  probes);
  }
}

TYPED_TEST(KarySearchTypedTest, MatchesStdUpperBoundWithDuplicates) {
  using T = TypeParam;
  Rng rng(7);
  for (int64_t n : {int64_t{10}, int64_t{50}, int64_t{150}}) {
    std::vector<T> keys(static_cast<size_t>(n));
    // Few distinct values -> heavy duplication.
    for (auto& k : keys) k = static_cast<T>(rng.NextBounded(5) * 3);
    std::sort(keys.begin(), keys.end());
    const auto probes = MakeProbes<T>(keys, rng);
    CheckAllConfigs<T, simd::PopcountEval, simd::kDefaultBackend>(keys,
                                                                  probes);
  }
}

TYPED_TEST(KarySearchTypedTest, HandlesTypeExtremesAsKeys) {
  using T = TypeParam;
  // Keys include the type maximum, which collides with the padding value;
  // the clamp to n must keep results exact.
  std::vector<T> keys = {std::numeric_limits<T>::min(), T{0},
                         std::numeric_limits<T>::max(),
                         std::numeric_limits<T>::max()};
  std::sort(keys.begin(), keys.end());
  Rng rng(3);
  const auto probes = MakeProbes<T>(keys, rng);
  CheckAllConfigs<T, simd::PopcountEval, simd::kDefaultBackend>(keys, probes);
}

TYPED_TEST(KarySearchTypedTest, AllKeysEqualTypeMax) {
  using T = TypeParam;
  std::vector<T> keys(40, std::numeric_limits<T>::max());
  Rng rng(4);
  const auto probes = MakeProbes<T>(keys, rng);
  CheckAllConfigs<T, simd::PopcountEval, simd::kDefaultBackend>(keys, probes);
}

// Every (eval policy x backend) combination on a representative workload.
template <typename T>
void SweepEvalAndBackend() {
  Rng rng(555);
  std::vector<T> keys(97);
  for (auto& k : keys) k = static_cast<T>(rng.Next());
  std::sort(keys.begin(), keys.end());
  const auto probes = MakeProbes<T>(keys, rng);
  CheckAllConfigs<T, simd::BitShiftEval, simd::Backend::kScalar>(keys,
                                                                 probes);
  CheckAllConfigs<T, simd::SwitchCaseEval, simd::Backend::kScalar>(keys,
                                                                   probes);
  CheckAllConfigs<T, simd::PopcountEval, simd::Backend::kScalar>(keys,
                                                                 probes);
#if defined(__SSE2__) && defined(__SSE4_2__)
  CheckAllConfigs<T, simd::BitShiftEval, simd::Backend::kSse>(keys, probes);
  CheckAllConfigs<T, simd::SwitchCaseEval, simd::Backend::kSse>(keys, probes);
  CheckAllConfigs<T, simd::PopcountEval, simd::Backend::kSse>(keys, probes);
#endif
}

TYPED_TEST(KarySearchTypedTest, AllEvalPoliciesAndBackendsAgree) {
  SweepEvalAndBackend<TypeParam>();
}

TYPED_TEST(KarySearchTypedTest, EqualityExtensionMatchesOnDistinctKeys) {
  using T = TypeParam;
  Rng rng(11);
  for (int64_t n : {int64_t{1}, int64_t{20}, int64_t{85}, int64_t{200}}) {
    std::vector<T> keys(static_cast<size_t>(n));
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    Fixture<T> f(keys, Layout::kBreadthFirst, Storage::kTruncated);
    const auto probes = MakeProbes<T>(keys, rng);
    for (T v : probes) {
      const int64_t got = UpperBoundBfWithEquality<T>(
          f.lin.data(), f.shape, f.stored,
          static_cast<int64_t>(keys.size()), v);
      ASSERT_EQ(got, f.ReferenceUpperBound(v))
          << "n=" << keys.size() << " v=" << static_cast<int64_t>(v);
    }
  }
}

TEST(KarySearchTest, PaperFigure5Example) {
  // Figure 5: breadth-first linearized 26 keys (0..25), probe v = 9 lands
  // at logical position 10 == upper_bound: key 9 exists at position 9.
  std::vector<int64_t> keys(26);
  for (int i = 0; i < 26; ++i) keys[static_cast<size_t>(i)] = i;
  Fixture<int64_t> f(keys, Layout::kBreadthFirst, Storage::kPerfect);
  EXPECT_EQ((UpperBoundBf<int64_t>(f.lin.data(), f.stored, 26, 9)), 10);
  // The paper's narration returns pLevel = 9 = "first key greater than the
  // search key" under its 1-based reading; as an upper bound over 0-based
  // positions the first key greater than 9 is key 10 at position 10.
  EXPECT_EQ((UpperBoundBf<int64_t>(f.lin.data(), f.stored, 26, 8)), 9);
}

TEST(KarySearchTest, LowerBoundHelper) {
  std::vector<int32_t> keys = {2, 4, 4, 4, 9, 11};
  Fixture<int32_t> f(keys, Layout::kBreadthFirst, Storage::kTruncated);
  auto ub = [&](int32_t v) {
    return UpperBoundBf<int32_t>(f.lin.data(), f.stored,
                                 static_cast<int64_t>(keys.size()), v);
  };
  EXPECT_EQ(LowerBoundFromUpperBound<int32_t>(4, ub), 1);
  EXPECT_EQ(LowerBoundFromUpperBound<int32_t>(5, ub), 4);
  EXPECT_EQ(LowerBoundFromUpperBound<int32_t>(
                std::numeric_limits<int32_t>::min(), ub),
            0);
  EXPECT_EQ(LowerBoundFromUpperBound<int32_t>(12, ub), 6);
}

// The group searches (batch_search.h) give each probe its own array:
// probes of one group search fixtures of different sizes — empty ones,
// one-node ones, and truncated breadth-first ones whose padding tails
// prune subtrees — and every answer must be the probe's own
// std::upper_bound, with the counted run counting what the single
// searches count. Runs on the default (dispatch) backend, so the
// _force_scalar entry covers the scalar image too.
template <typename T>
void CheckMixedArrayGroups(Layout layout) {
  const Storage storage =
      layout == Layout::kBreadthFirst ? Storage::kTruncated : Storage::kPerfect;
  Rng rng(static_cast<uint64_t>(sizeof(T)) * 131 + static_cast<int>(layout));
  std::vector<Fixture<T>> fixtures;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{9},
                         size_t{80}, size_t{81}, size_t{300}, size_t{1000}}) {
    std::vector<T> keys(n);
    for (T& k : keys) k = static_cast<T>(rng.Next());
    std::sort(keys.begin(), keys.end());
    fixtures.emplace_back(std::move(keys), layout, storage);
  }
  for (int trial = 0; trial < 400; ++trial) {
    const int g = 1 + static_cast<int>(rng.NextBounded(kMaxBatchGroup));
    const T* lin[kMaxBatchGroup];
    int64_t stored[kMaxBatchGroup];
    int64_t n[kMaxBatchGroup];
    T vals[kMaxBatchGroup];
    const Fixture<T>* of[kMaxBatchGroup];
    SearchCounters single;
    for (int i = 0; i < g; ++i) {
      of[i] = &fixtures[rng.NextBounded(fixtures.size())];
      lin[i] = of[i]->lin.data();
      stored[i] = of[i]->stored;
      n[i] = static_cast<int64_t>(of[i]->sorted.size());
      vals[i] = of[i]->sorted.empty() || rng.NextBounded(3) == 0
                    ? static_cast<T>(rng.Next())
                    : of[i]->sorted[rng.NextBounded(of[i]->sorted.size())];
      if (layout == Layout::kBreadthFirst) {
        UpperBoundBf<T>(lin[i], stored[i], n[i], vals[i], &single);
      } else {
        UpperBoundDf<T>(lin[i], stored[i], n[i], vals[i], &single);
      }
    }
    int64_t out[kMaxBatchGroup];
    SearchCounters counted;
    if (layout == Layout::kBreadthFirst) {
      UpperBoundBfGroup<T>(lin, stored, n, vals, g, out, &counted);
    } else {
      UpperBoundDfGroup<T>(lin, stored, n, vals, g, out, &counted);
    }
    for (int i = 0; i < g; ++i) {
      ASSERT_EQ(out[i], of[i]->ReferenceUpperBound(vals[i]))
          << "i=" << i << " g=" << g << " n=" << n[i];
    }
    ASSERT_EQ(counted.simd_comparisons, single.simd_comparisons) << "g=" << g;
  }
}

TEST(KarySearchTest, GroupSearchesOverMixedArrays) {
  for (const Layout layout : {Layout::kBreadthFirst, Layout::kDepthFirst}) {
    CheckMixedArrayGroups<int8_t>(layout);
    CheckMixedArrayGroups<uint16_t>(layout);
    CheckMixedArrayGroups<int32_t>(layout);
    CheckMixedArrayGroups<uint64_t>(layout);
  }
}

}  // namespace
}  // namespace simdtree::kary
