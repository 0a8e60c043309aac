// Tests for the runtime SIMD dispatch layer (simd/dispatch.h): the pure
// resolution function over synthetic CPU feature sets and every
// SIMDTREE_FORCE_BACKEND value, which registries each CPU may fill, the
// auto-degrade rule for backends this binary does not carry, the
// rejection messages, and the consistency of the process-wide decision
// with what the binary and host support.

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "simd/cpu_features.h"
#include "simd/dispatch.h"
#include "simd/simd128.h"

namespace simdtree {
namespace {

using simd::CpuFeatures;
using simd::DispatchLevel;
using simd::MaxSupportedLevel;
using simd::NativeKernelsCompiled;
using simd::ResolveDispatchLevel;

CpuFeatures NoFeatures() { return CpuFeatures{}; }

CpuFeatures SseOnly() {
  CpuFeatures f{};
  f.sse2 = f.sse42 = f.popcnt = true;
  return f;
}

CpuFeatures UpToAvx2() {
  CpuFeatures f = SseOnly();
  f.avx2 = true;
  return f;
}

CpuFeatures UpToAvx512() {
  CpuFeatures f = UpToAvx2();
  f.avx512f = f.avx512bw = f.avx512vl = true;
  return f;
}

// AVX-512F without BW cannot serve 8/16-bit lane compares and must not
// qualify as the AVX-512 level.
CpuFeatures Avx512FWithoutBw() {
  CpuFeatures f = UpToAvx2();
  f.avx512f = true;
  return f;
}

TEST(DispatchTest, MaxSupportedLevelLadder) {
  EXPECT_EQ(MaxSupportedLevel(NoFeatures()), DispatchLevel::kScalar);
  EXPECT_EQ(MaxSupportedLevel(SseOnly()), DispatchLevel::kSse);
  EXPECT_EQ(MaxSupportedLevel(UpToAvx2()), DispatchLevel::kAvx2);
  EXPECT_EQ(MaxSupportedLevel(UpToAvx512()), DispatchLevel::kAvx512);
  EXPECT_EQ(MaxSupportedLevel(Avx512FWithoutBw()), DispatchLevel::kAvx2);
}

// Filling a registry runs code compiled for its ISA, so only a CPU
// that executes that ISA may fill it.
TEST(DispatchTest, OnlyACpuWithTheIsaFillsARegistry) {
  for (int bits : {256, 512}) {
    EXPECT_FALSE(simd::CpuFillsRegistry(bits, NoFeatures())) << bits;
    EXPECT_FALSE(simd::CpuFillsRegistry(bits, SseOnly())) << bits;
    EXPECT_TRUE(simd::CpuFillsRegistry(bits, UpToAvx512())) << bits;
  }
  EXPECT_TRUE(simd::CpuFillsRegistry(256, UpToAvx2()));
  EXPECT_FALSE(simd::CpuFillsRegistry(512, UpToAvx2()));
  EXPECT_FALSE(simd::CpuFillsRegistry(512, Avx512FWithoutBw()));
  // 128 bits is the baseline SSE code, which has no registry.
  EXPECT_FALSE(simd::CpuFillsRegistry(128, UpToAvx512()));
}

TEST(DispatchTest, AutoSelectsWidestCompiledLevel) {
  DispatchLevel level = DispatchLevel::kScalar;
  std::string error;

  ASSERT_TRUE(ResolveDispatchLevel(NoFeatures(), nullptr, &level, &error));
  EXPECT_EQ(level, DispatchLevel::kScalar);

  // Auto never exceeds what the binary carries: on a full-featured CPU
  // the result is the widest level whose kernels are compiled in.
  ASSERT_TRUE(ResolveDispatchLevel(UpToAvx512(), nullptr, &level, &error));
  if (NativeKernelsCompiled(512)) {
    EXPECT_EQ(level, DispatchLevel::kAvx512);
  } else if (NativeKernelsCompiled(256)) {
    EXPECT_EQ(level, DispatchLevel::kAvx2);
  } else if (NativeKernelsCompiled(128)) {
    EXPECT_EQ(level, DispatchLevel::kSse);
  } else {
    EXPECT_EQ(level, DispatchLevel::kScalar);
  }

  // An empty force string is auto, not an unknown name.
  ASSERT_TRUE(ResolveDispatchLevel(SseOnly(), "", &level, &error));
}

TEST(DispatchTest, ForceScalarAlwaysWorks) {
  DispatchLevel level = DispatchLevel::kAvx512;
  std::string error;
  ASSERT_TRUE(ResolveDispatchLevel(NoFeatures(), "scalar", &level, &error));
  EXPECT_EQ(level, DispatchLevel::kScalar);
  ASSERT_TRUE(ResolveDispatchLevel(UpToAvx512(), "scalar", &level, &error));
  EXPECT_EQ(level, DispatchLevel::kScalar);
}

TEST(DispatchTest, ForceRejectsUnknownName) {
  DispatchLevel level = DispatchLevel::kScalar;
  std::string error;
  EXPECT_FALSE(
      ResolveDispatchLevel(UpToAvx512(), "avx1024", &level, &error));
  EXPECT_NE(error.find("not a known backend"), std::string::npos) << error;
  EXPECT_NE(error.find("avx1024"), std::string::npos) << error;
}

TEST(DispatchTest, ForceRejectsBackendTheCpuLacks) {
  DispatchLevel level = DispatchLevel::kScalar;
  std::string error;
  EXPECT_FALSE(ResolveDispatchLevel(SseOnly(), "avx512", &level, &error));
  EXPECT_NE(error.find("only supports sse"), std::string::npos) << error;

  EXPECT_FALSE(ResolveDispatchLevel(NoFeatures(), "sse", &level, &error));
  EXPECT_NE(error.find("only supports scalar"), std::string::npos) << error;

  // F without BW is not enough for avx512.
  EXPECT_FALSE(
      ResolveDispatchLevel(Avx512FWithoutBw(), "avx512", &level, &error));
}

TEST(DispatchTest, ForceRejectsBackendTheBinaryLacks) {
  // Only exercisable in builds that omit some kernels; with everything
  // compiled in, forcing any CPU-supported level succeeds instead.
  DispatchLevel level = DispatchLevel::kScalar;
  std::string error;
  const bool ok =
      ResolveDispatchLevel(UpToAvx512(), "avx512", &level, &error);
  if (NativeKernelsCompiled(512)) {
    EXPECT_TRUE(ok);
    EXPECT_EQ(level, DispatchLevel::kAvx512);
  } else {
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("built without avx512"), std::string::npos)
        << error;
  }
}

TEST(DispatchTest, ActiveDecisionIsConsistent) {
  const simd::DispatchDecision& d = simd::ActiveDispatch();
  // Never wider than the host...
  EXPECT_LE(static_cast<int>(d.level),
            static_cast<int>(MaxSupportedLevel(simd::DetectCpuFeatures())));
  // ...register width matches the level...
  switch (d.level) {
    case DispatchLevel::kAvx512:
      EXPECT_EQ(d.register_bits, 512);
      break;
    case DispatchLevel::kAvx2:
      EXPECT_EQ(d.register_bits, 256);
      break;
    default:
      EXPECT_EQ(d.register_bits, 128);
  }
  // ...forced reflects the environment this test process runs under.
  const char* force = std::getenv("SIMDTREE_FORCE_BACKEND");
  EXPECT_EQ(d.forced, force != nullptr && force[0] != '\0');
  if (d.forced) {
    EXPECT_STREQ(simd::DispatchLevelName(d.level), force);
  }
}

TEST(DispatchTest, EffectiveBackendNamesAreWellFormed) {
  for (int bits : {128, 256, 512}) {
    const std::string name = simd::EffectiveBackendName(bits);
    EXPECT_TRUE(name == "scalar" || name == "sse" || name == "avx2" ||
                name == "avx512")
        << bits << " -> " << name;
  }
  // A width the dispatch does not want natively is served scalar.
  if (!simd::DispatchWantsNative(512)) {
    EXPECT_STREQ(simd::EffectiveBackendName(512), "scalar");
  }
}

TEST(DispatchTest, WantsNativeIsMonotoneInWidth) {
  // If the decision serves 512 natively it also serves the narrower
  // widths natively (levels are a ladder).
  if (simd::DispatchWantsNative(512)) {
    EXPECT_TRUE(simd::DispatchWantsNative(256));
    EXPECT_TRUE(simd::DispatchWantsNative(128));
  }
  if (simd::DispatchWantsNative(256)) {
    EXPECT_TRUE(simd::DispatchWantsNative(128));
  }
}

}  // namespace
}  // namespace simdtree
