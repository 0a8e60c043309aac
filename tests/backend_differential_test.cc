// Randomized differential harness over every SIMD backend: each
// Ops<T, B, W> specialization and each search kernel is run against the
// scalar oracle of the same register width over adversarial inputs —
// type extremes (INT_MIN/INT_MAX lanes), all-duplicate nodes, max-key
// padding tails (the linearizer's PadValue image), sign-boundary
// straddles (around 0 for signed keys, around the bias point for
// unsigned ones) — for all four key widths (8/16/32/64-bit).
//
// Native kernels this TU cannot name directly (it is compiled with
// baseline flags) are reached through the runtime-dispatch registry
// (kary/dispatch_kernels.h): the same function pointers every
// Backend::kDispatch search uses. Combos the host CPU cannot execute,
// or whose kernels this binary does not carry, are SKIPPED — visibly,
// via GTEST_SKIP — never silently passed.
//
// SIMDTREE_STRESS=1 multiplies the randomized trial counts (the ctest
// `stress` label runs that configuration).

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "kary/batch_search.h"
#include "kary/dispatch_kernels.h"
#include "kary/kary_search.h"
#include "kary/linearize.h"
#include "simd/bitmask_eval.h"
#include "simd/cpu_features.h"
#include "simd/dispatch.h"
#include "simd/simd256.h"
#include "simd/simd512.h"
#include "util/counters.h"
#include "util/rng.h"

namespace simdtree {
namespace {

using kary::NativeKernels;
using simd::Backend;
using simd::LaneTraits;

int TrialScale() {
  const char* s = std::getenv("SIMDTREE_STRESS");
  return (s != nullptr && s[0] == '1') ? 10 : 1;
}

// Whether the registry path for the given register width is runnable
// here: the CPU can execute the kernels' ISA and the binary carries
// them. Callers GTEST_SKIP with `why` when this returns false; on true
// the registry is filled, as it is before any search routes to it.
bool RegistryRunnable(int register_bits, std::string* why) {
  simd::ActiveDispatch();
  if (!simd::CpuFillsRegistry(register_bits, simd::DetectCpuFeatures())) {
    *why = "host CPU lacks the ISA for " + std::to_string(register_bits) +
           "-bit native kernels (" + simd::CpuFeatureString() + ")";
    return false;
  }
  if (!simd::NativeKernelsCompiled(register_bits)) {
    *why = "binary carries no native kernels for " +
           std::to_string(register_bits) + "-bit registers";
    return false;
  }
  return true;
}

// --- adversarial inputs ---------------------------------------------------

// One register's worth of lane values per pattern. `trial` varies the
// random patterns; the deterministic ones repeat.
template <typename T>
std::vector<std::vector<T>> AdversarialLaneSets(int lanes, Rng& rng) {
  const T kMin = std::numeric_limits<T>::min();
  const T kMax = std::numeric_limits<T>::max();
  std::vector<std::vector<T>> sets;

  std::vector<T> random(static_cast<size_t>(lanes));
  for (auto& k : random) k = static_cast<T>(rng.Next());
  sets.push_back(random);

  // All duplicates of one random value; and of the extremes.
  sets.push_back(std::vector<T>(static_cast<size_t>(lanes),
                                static_cast<T>(rng.Next())));
  sets.push_back(std::vector<T>(static_cast<size_t>(lanes), kMin));
  sets.push_back(std::vector<T>(static_cast<size_t>(lanes), kMax));

  // Max-key padding tail: real keys then kMax padding (what a
  // linearized node's unmaterialized tail looks like).
  std::vector<T> padded(static_cast<size_t>(lanes), kMax);
  for (int i = 0; i < lanes / 2; ++i) {
    padded[static_cast<size_t>(i)] = static_cast<T>(rng.Next());
  }
  std::sort(padded.begin(), padded.end());
  sets.push_back(padded);

  // Sign-boundary straddle: consecutive values around the point where
  // the signed/unsigned order diverges — 0 for signed keys, the sign
  // bit (kSignBias) for unsigned ones. The SSE/AVX2 unsigned path
  // biases operands; an off-by-one here flips exactly these lanes.
  std::vector<T> straddle(static_cast<size_t>(lanes));
  const T pivot = std::is_signed_v<T>
                      ? T{0}
                      : static_cast<T>(LaneTraits<T, 128>::kSignBias);
  for (int i = 0; i < lanes; ++i) {
    straddle[static_cast<size_t>(i)] =
        static_cast<T>(pivot + static_cast<T>(i - lanes / 2));
  }
  sets.push_back(straddle);

  return sets;
}

// Probe values worth aiming at a node: extremes, boundary straddles,
// the node's own lanes and their neighbours, randoms.
template <typename T>
std::vector<T> AdversarialProbes(const std::vector<T>& lanes, Rng& rng) {
  const T kMin = std::numeric_limits<T>::min();
  const T kMax = std::numeric_limits<T>::max();
  std::vector<T> probes = {kMin, kMax, T{0}, static_cast<T>(rng.Next())};
  const T pivot = std::is_signed_v<T>
                      ? T{0}
                      : static_cast<T>(LaneTraits<T, 128>::kSignBias);
  probes.push_back(static_cast<T>(pivot - 1));
  probes.push_back(pivot);
  for (T k : lanes) {
    probes.push_back(k);
    if (k != kMin) probes.push_back(static_cast<T>(k - 1));
    if (k != kMax) probes.push_back(static_cast<T>(k + 1));
  }
  return probes;
}

// --- mask-level differential ----------------------------------------------

// Expected CmpGt/CmpEq mask images from a per-lane loop, in the mask
// layout of the given register width (byte-granular at 128/256,
// lane-granular at 512).
template <typename T, int kBits>
void OracleMasks(const std::vector<T>& lanes, T probe, uint64_t* gt,
                 uint64_t* eq) {
  using Traits = LaneTraits<T, kBits>;
  *gt = 0;
  *eq = 0;
  for (int i = 0; i < Traits::kLanes; ++i) {
    const uint64_t lane_bits =
        ((uint64_t{1} << Traits::kMaskBitsPerLane) - 1)
        << (i * Traits::kMaskBitsPerLane);
    if (lanes[static_cast<size_t>(i)] > probe) *gt |= lane_bits;
    if (lanes[static_cast<size_t>(i)] == probe) *eq |= lane_bits;
  }
}

// The scalar backend against the per-lane oracle (validates the oracle
// and the scalar image in one direction), then the native mask function
// against the same oracle.
template <typename T, int kBits>
void CheckMasksAgainstOracle(uint64_t (*native_gt)(const T*, T),
                             uint64_t (*native_eq)(const T*, T)) {
  using Sca = simd::Ops<T, Backend::kScalar, kBits>;
  constexpr int lanes = LaneTraits<T, kBits>::kLanes;
  Rng rng(61);
  const int trials = 200 * TrialScale();
  for (int trial = 0; trial < trials; ++trial) {
    for (const auto& keys : AdversarialLaneSets<T>(lanes, rng)) {
      for (T probe : AdversarialProbes<T>(keys, rng)) {
        uint64_t want_gt, want_eq;
        OracleMasks<T, kBits>(keys, probe, &want_gt, &want_eq);
        const uint64_t sca_gt = static_cast<uint64_t>(Sca::MoveMask(
            Sca::CmpGt(Sca::LoadUnaligned(keys.data()), Sca::Set1(probe))));
        const uint64_t sca_eq = static_cast<uint64_t>(Sca::MoveMask(
            Sca::CmpEq(Sca::LoadUnaligned(keys.data()), Sca::Set1(probe))));
        ASSERT_EQ(sca_gt, want_gt)
            << "scalar gt, v=" << static_cast<int64_t>(probe);
        ASSERT_EQ(sca_eq, want_eq)
            << "scalar eq, v=" << static_cast<int64_t>(probe);
        if (native_gt != nullptr) {
          ASSERT_EQ(native_gt(keys.data(), probe), want_gt)
              << "native gt, v=" << static_cast<int64_t>(probe);
        }
        if (native_eq != nullptr) {
          ASSERT_EQ(native_eq(keys.data(), probe), want_eq)
              << "native eq, v=" << static_cast<int64_t>(probe);
        }
      }
    }
  }
}

// 128-bit: the baseline SSE backend is inline in this TU.
template <typename T>
void CheckMasks128() {
  if constexpr (simd::kHaveSse) {
    using Sse = simd::Ops<T, Backend::kSse, 128>;
    CheckMasksAgainstOracle<T, 128>(
        [](const T* keys, T v) {
          return static_cast<uint64_t>(Sse::MoveMask(
              Sse::CmpGt(Sse::LoadUnaligned(keys), Sse::Set1(v))));
        },
        [](const T* keys, T v) {
          return static_cast<uint64_t>(Sse::MoveMask(
              Sse::CmpEq(Sse::LoadUnaligned(keys), Sse::Set1(v))));
        });
  } else {
    CheckMasksAgainstOracle<T, 128>(nullptr, nullptr);
  }
}

TEST(BackendDifferentialTest, Masks128AllKeyWidths) {
  CheckMasks128<int8_t>();
  CheckMasks128<uint8_t>();
  CheckMasks128<int16_t>();
  CheckMasks128<uint16_t>();
  CheckMasks128<int32_t>();
  CheckMasks128<uint32_t>();
  CheckMasks128<int64_t>();
  CheckMasks128<uint64_t>();
}

// 256/512-bit native masks via the dispatch registry.
template <typename T, int kBits>
void CheckMasksRegistry() {
  const auto& table = NativeKernels<T, simd::PopcountEval, kBits>::instance;
  ASSERT_NE(table.cmp_gt_mask, nullptr);
  ASSERT_NE(table.cmp_eq_mask, nullptr);
  CheckMasksAgainstOracle<T, kBits>(table.cmp_gt_mask, table.cmp_eq_mask);
}

TEST(BackendDifferentialTest, Masks256NativeAllKeyWidths) {
  std::string why;
  if (!RegistryRunnable(256, &why)) GTEST_SKIP() << why;
  CheckMasksRegistry<int8_t, 256>();
  CheckMasksRegistry<uint8_t, 256>();
  CheckMasksRegistry<int16_t, 256>();
  CheckMasksRegistry<uint16_t, 256>();
  CheckMasksRegistry<int32_t, 256>();
  CheckMasksRegistry<uint32_t, 256>();
  CheckMasksRegistry<int64_t, 256>();
  CheckMasksRegistry<uint64_t, 256>();
}

TEST(BackendDifferentialTest, Masks512NativeAllKeyWidths) {
  std::string why;
  if (!RegistryRunnable(512, &why)) GTEST_SKIP() << why;
  CheckMasksRegistry<int8_t, 512>();
  CheckMasksRegistry<uint8_t, 512>();
  CheckMasksRegistry<int16_t, 512>();
  CheckMasksRegistry<uint16_t, 512>();
  CheckMasksRegistry<int32_t, 512>();
  CheckMasksRegistry<uint32_t, 512>();
  CheckMasksRegistry<int64_t, 512>();
  CheckMasksRegistry<uint64_t, 512>();
}

// --- search-kernel differential -------------------------------------------

// Sorted key sets that hit kernel edge cases at arity k: empty, single,
// exactly one node, one-over, duplicates everywhere, extreme-heavy, and
// larger random sets whose linearizations carry max-key padding tails.
template <typename T>
std::vector<std::vector<T>> AdversarialKeySets(int arity, Rng& rng) {
  const T kMin = std::numeric_limits<T>::min();
  const T kMax = std::numeric_limits<T>::max();
  std::vector<std::vector<T>> sets;
  sets.push_back({});
  sets.push_back({static_cast<T>(rng.Next())});
  for (int64_t n : {int64_t{arity - 1}, int64_t{arity},
                    int64_t{arity + 1}, int64_t{200}}) {
    std::vector<T> keys(static_cast<size_t>(n));
    for (auto& k : keys) k = static_cast<T>(rng.Next());
    std::sort(keys.begin(), keys.end());
    sets.push_back(keys);
    // All-duplicate run with extreme sentinels at both ends.
    std::vector<T> dup(static_cast<size_t>(n), static_cast<T>(42));
    dup.front() = kMin;
    dup.back() = kMax;
    std::sort(dup.begin(), dup.end());
    sets.push_back(dup);
  }
  // Extreme-heavy: half the keys are the type minimum or maximum.
  std::vector<T> extremes;
  for (int i = 0; i < 50; ++i) {
    extremes.push_back(i % 2 == 0 ? kMin : kMax);
    extremes.push_back(static_cast<T>(rng.Next()));
  }
  std::sort(extremes.begin(), extremes.end());
  sets.push_back(extremes);
  return sets;
}

// Kernel shapes of the registry (kary/dispatch_kernels.h): a null
// SearchCounters* runs the uncounted instantiation.
template <typename T>
using SingleKernel = int64_t (*)(const T*, int64_t, int64_t, T,
                                 SearchCounters*);
template <typename T>
using GroupKernel = void (*)(const T* const*, const int64_t*, const int64_t*,
                             const T*, int, int64_t*, SearchCounters*);

// One linearized key set of the search differential.
template <typename T>
struct LinearizedSet {
  std::vector<T> keys;  // sorted: the oracle's input
  std::vector<T> lin;
  int64_t stored = 0;
  std::vector<T> probes;
};

// Group kernels over mixed arrays: probe i of a group searches its own
// set (a different array, n and stored count per probe, empty sets and
// truncated padding tails included) for one of that set's probes. Every
// answer must match std::upper_bound, uncounted and counted, and the
// counted run must count what the scalar image of the width counts.
template <typename T, int kBits>
void CheckMixedGroups(const std::vector<LinearizedSet<T>>& sets,
                      GroupKernel<T> group, GroupKernel<T> scalar_group,
                      kary::Layout layout, Rng& rng) {
  const int trials = 20 * TrialScale();
  for (int trial = 0; trial < trials; ++trial) {
    const int g = 1 + static_cast<int>(rng.NextBounded(kMaxBatchGroup));
    const T* lin[kMaxBatchGroup];
    int64_t stored[kMaxBatchGroup];
    int64_t n[kMaxBatchGroup];
    T vals[kMaxBatchGroup];
    int64_t want[kMaxBatchGroup];
    for (int i = 0; i < g; ++i) {
      const LinearizedSet<T>& set = sets[rng.NextBounded(sets.size())];
      lin[i] = set.lin.data();
      stored[i] = set.stored;
      n[i] = static_cast<int64_t>(set.keys.size());
      vals[i] = set.probes.empty()
                    ? static_cast<T>(rng.Next())
                    : set.probes[rng.NextBounded(set.probes.size())];
      want[i] = std::upper_bound(set.keys.begin(), set.keys.end(), vals[i]) -
                set.keys.begin();
    }
    int64_t out[kMaxBatchGroup];
    int64_t counted[kMaxBatchGroup];
    int64_t unused[kMaxBatchGroup];
    SearchCounters got, image;
    group(lin, stored, n, vals, g, out, nullptr);
    group(lin, stored, n, vals, g, counted, &got);
    scalar_group(lin, stored, n, vals, g, unused, &image);
    for (int i = 0; i < g; ++i) {
      ASSERT_EQ(out[i], want[i]) << "mixed group i=" << i << " g=" << g
                                 << " n=" << n[i]
                                 << " layout=" << kary::LayoutName(layout);
      ASSERT_EQ(counted[i], want[i]) << "counted mixed group i=" << i;
    }
    ASSERT_EQ(got.simd_comparisons, image.simd_comparisons)
        << "mixed group g=" << g << " layout=" << kary::LayoutName(layout);
  }
}

// Runs one (layout, kernel) pair over the adversarial key sets against
// std::upper_bound, uncounted and counted. A counted run must also count
// the simd_comparisons the scalar image of the same width counts. `bf`
// and `df` are the single-query kernels (either template instantiations
// or registry pointers); `bf_group`/`df_group` the pipelined batch
// kernels, run once with every probe on one set and once over mixed sets.
template <typename T, int kBits>
void CheckSearchKernels(SingleKernel<T> bf, SingleKernel<T> df,
                        GroupKernel<T> bf_group, GroupKernel<T> df_group) {
  using Eval = simd::PopcountEval;
  constexpr Backend kScalar = Backend::kScalar;
  constexpr int arity = LaneTraits<T, kBits>::kArity;
  Rng rng(67);
  const int rounds = 2 * TrialScale();
  for (int round = 0; round < rounds; ++round) {
    const auto key_sets = AdversarialKeySets<T>(arity, rng);
    for (kary::Layout layout :
         {kary::Layout::kBreadthFirst, kary::Layout::kDepthFirst}) {
      const bool bfs = layout == kary::Layout::kBreadthFirst;
      const auto group = bfs ? bf_group : df_group;
      const GroupKernel<T> scalar_group =
          bfs ? kary::UpperBoundBfGroup<T, Eval, kScalar, kBits>
              : kary::UpperBoundDfGroup<T, Eval, kScalar, kBits>;
      std::vector<LinearizedSet<T>> sets;
      for (const auto& keys : key_sets) {
        const int64_t n = static_cast<int64_t>(keys.size());
        const kary::KaryShape shape =
            kary::KaryShape::For(arity, n == 0 ? 1 : n);
        const kary::Storage storage = bfs ? kary::Storage::kTruncated
                                          : kary::Storage::kPerfect;
        const kary::KaryLayout kl(shape, layout);
        const int64_t stored = kl.StoredSlots(n, storage);
        std::vector<T> lin(static_cast<size_t>(stored));
        kl.Linearize(keys.data(), n, lin.data(), stored, kary::PadValue<T>());

        const auto probes = AdversarialProbes<T>(keys, rng);
        const auto single = bfs ? bf : df;
        for (T v : probes) {
          const int64_t want =
              std::upper_bound(keys.begin(), keys.end(), v) - keys.begin();
          ASSERT_EQ(single(lin.data(), stored, n, v, nullptr), want)
              << "n=" << n << " layout=" << kary::LayoutName(layout)
              << " v=" << static_cast<int64_t>(v);
          SearchCounters got, image;
          ASSERT_EQ(single(lin.data(), stored, n, v, &got), want)
              << "counted n=" << n << " layout=" << kary::LayoutName(layout)
              << " v=" << static_cast<int64_t>(v);
          if (bfs) {
            kary::UpperBoundBf<T, Eval, kScalar, kBits>(lin.data(), stored, n,
                                                        v, &image);
          } else {
            kary::UpperBoundDf<T, Eval, kScalar, kBits>(lin.data(), stored, n,
                                                        v, &image);
          }
          ASSERT_EQ(got.simd_comparisons, image.simd_comparisons)
              << "n=" << n << " layout=" << kary::LayoutName(layout)
              << " v=" << static_cast<int64_t>(v);
        }
        sets.push_back(LinearizedSet<T>{keys, lin, stored, probes});
        if (probes.empty()) continue;
        // One set for every probe (a KaryArray batch's shape).
        const int g =
            std::min<int>(static_cast<int>(probes.size()), kMaxBatchGroup);
        const LinearizedSet<T>& set = sets.back();
        const T* lins[kMaxBatchGroup];
        int64_t storeds[kMaxBatchGroup];
        int64_t ns[kMaxBatchGroup];
        for (int i = 0; i < g; ++i) {
          lins[i] = set.lin.data();
          storeds[i] = stored;
          ns[i] = n;
        }
        std::vector<int64_t> out(static_cast<size_t>(g), -1);
        std::vector<int64_t> counted(static_cast<size_t>(g), -1);
        SearchCounters got, image;
        group(lins, storeds, ns, probes.data(), g, out.data(), nullptr);
        group(lins, storeds, ns, probes.data(), g, counted.data(), &got);
        std::vector<int64_t> unused(static_cast<size_t>(g));
        scalar_group(lins, storeds, ns, probes.data(), g, unused.data(),
                     &image);
        for (int i = 0; i < g; ++i) {
          const int64_t want =
              std::upper_bound(keys.begin(), keys.end(),
                               probes[static_cast<size_t>(i)]) -
              keys.begin();
          ASSERT_EQ(out[static_cast<size_t>(i)], want)
              << "group i=" << i << " layout=" << kary::LayoutName(layout);
          ASSERT_EQ(counted[static_cast<size_t>(i)], want)
              << "counted group i=" << i
              << " layout=" << kary::LayoutName(layout);
        }
        ASSERT_EQ(got.simd_comparisons, image.simd_comparisons)
            << "group n=" << n << " layout=" << kary::LayoutName(layout);
      }
      CheckMixedGroups<T, kBits>(sets, group, scalar_group, layout, rng);
    }
  }
}

// Template-instantiated kernels for a concrete backend, in the registry
// shapes.
template <typename T, typename Eval, Backend B, int kBits>
void CheckSearchKernelsInline() {
  CheckSearchKernels<T, kBits>(
      [](const T* lin, int64_t stored, int64_t n, T v, SearchCounters* c) {
        return c == nullptr
                   ? kary::UpperBoundBf<T, Eval, B, kBits>(lin, stored, n, v)
                   : kary::UpperBoundBf<T, Eval, B, kBits>(lin, stored, n, v,
                                                           c);
      },
      [](const T* lin, int64_t stored, int64_t n, T v, SearchCounters* c) {
        return c == nullptr
                   ? kary::UpperBoundDf<T, Eval, B, kBits>(lin, stored, n, v)
                   : kary::UpperBoundDf<T, Eval, B, kBits>(lin, stored, n, v,
                                                           c);
      },
      kary::UpperBoundBfGroup<T, Eval, B, kBits>,
      kary::UpperBoundDfGroup<T, Eval, B, kBits>);
}

// Registry-registered native kernels: every slot must be populated.
template <typename T, typename Eval, int kBits>
void CheckSearchKernelsRegistry() {
  const auto& table = NativeKernels<T, Eval, kBits>::instance;
  ASSERT_NE(table.upper_bound_bf, nullptr);
  ASSERT_NE(table.upper_bound_df, nullptr);
  ASSERT_NE(table.upper_bound_bf_group, nullptr);
  ASSERT_NE(table.upper_bound_df_group, nullptr);
  ASSERT_NE(table.cmp_gt_mask, nullptr);
  ASSERT_NE(table.cmp_eq_mask, nullptr);
  CheckSearchKernels<T, kBits>(table.upper_bound_bf, table.upper_bound_df,
                               table.upper_bound_bf_group,
                               table.upper_bound_df_group);
}

// Scalar images at every width always run: they are the oracle's twin
// and the fallback every dispatch route must be able to take.
TEST(BackendDifferentialTest, SearchScalarAllWidthsAllKeyWidths) {
  CheckSearchKernelsInline<int8_t, simd::PopcountEval, Backend::kScalar,
                           128>();
  CheckSearchKernelsInline<uint16_t, simd::BitShiftEval, Backend::kScalar,
                           128>();
  CheckSearchKernelsInline<int32_t, simd::SwitchCaseEval, Backend::kScalar,
                           256>();
  CheckSearchKernelsInline<uint32_t, simd::PopcountEval, Backend::kScalar,
                           512>();
  CheckSearchKernelsInline<int64_t, simd::PopcountEval, Backend::kScalar,
                           512>();
  CheckSearchKernelsInline<uint8_t, simd::PopcountEval, Backend::kScalar,
                           512>();
}

TEST(BackendDifferentialTest, Search128SseAllKeyWidths) {
  if constexpr (!simd::kHaveSse) {
    GTEST_SKIP() << "binary built without the SSE backend";
  } else {
    CheckSearchKernelsInline<int8_t, simd::PopcountEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<uint8_t, simd::BitShiftEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<int16_t, simd::SwitchCaseEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<uint16_t, simd::PopcountEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<int32_t, simd::PopcountEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<uint32_t, simd::SwitchCaseEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<int64_t, simd::BitShiftEval, Backend::kSse,
                             128>();
    CheckSearchKernelsInline<uint64_t, simd::PopcountEval, Backend::kSse,
                             128>();
  }
}

TEST(BackendDifferentialTest, Search256NativeAllKeyWidths) {
  std::string why;
  if (!RegistryRunnable(256, &why)) GTEST_SKIP() << why;
  CheckSearchKernelsRegistry<int8_t, simd::PopcountEval, 256>();
  CheckSearchKernelsRegistry<uint8_t, simd::BitShiftEval, 256>();
  CheckSearchKernelsRegistry<int16_t, simd::SwitchCaseEval, 256>();
  CheckSearchKernelsRegistry<uint16_t, simd::PopcountEval, 256>();
  CheckSearchKernelsRegistry<int32_t, simd::PopcountEval, 256>();
  CheckSearchKernelsRegistry<uint32_t, simd::SwitchCaseEval, 256>();
  CheckSearchKernelsRegistry<int64_t, simd::BitShiftEval, 256>();
  CheckSearchKernelsRegistry<uint64_t, simd::PopcountEval, 256>();
}

TEST(BackendDifferentialTest, Search512NativeAllKeyWidths) {
  std::string why;
  if (!RegistryRunnable(512, &why)) GTEST_SKIP() << why;
  CheckSearchKernelsRegistry<int8_t, simd::PopcountEval, 512>();
  CheckSearchKernelsRegistry<uint8_t, simd::BitShiftEval, 512>();
  CheckSearchKernelsRegistry<int16_t, simd::SwitchCaseEval, 512>();
  CheckSearchKernelsRegistry<uint16_t, simd::PopcountEval, 512>();
  CheckSearchKernelsRegistry<int32_t, simd::PopcountEval, 512>();
  CheckSearchKernelsRegistry<uint32_t, simd::SwitchCaseEval, 512>();
  CheckSearchKernelsRegistry<int64_t, simd::BitShiftEval, 512>();
  CheckSearchKernelsRegistry<uint64_t, simd::PopcountEval, 512>();
}

// The dispatch routing tag itself, at every width: whatever the host,
// kDispatch must agree with the oracle (native where available, scalar
// image otherwise). Runs everywhere by construction.
TEST(BackendDifferentialTest, SearchDispatchAllWidthsAllKeyWidths) {
  CheckSearchKernelsInline<int8_t, simd::PopcountEval, Backend::kDispatch,
                           128>();
  CheckSearchKernelsInline<uint16_t, simd::SwitchCaseEval,
                           Backend::kDispatch, 128>();
  CheckSearchKernelsInline<int32_t, simd::PopcountEval, Backend::kDispatch,
                           256>();
  CheckSearchKernelsInline<uint64_t, simd::BitShiftEval, Backend::kDispatch,
                           256>();
  CheckSearchKernelsInline<int8_t, simd::PopcountEval, Backend::kDispatch,
                           512>();
  CheckSearchKernelsInline<uint16_t, simd::PopcountEval, Backend::kDispatch,
                           512>();
  CheckSearchKernelsInline<uint32_t, simd::SwitchCaseEval,
                           Backend::kDispatch, 512>();
  CheckSearchKernelsInline<int64_t, simd::PopcountEval, Backend::kDispatch,
                           512>();
}

}  // namespace
}  // namespace simdtree
