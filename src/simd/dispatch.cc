#include "simd/dispatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/simd128.h"

namespace simdtree::simd {

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSse:
      return "sse";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

DispatchLevel MaxSupportedLevel(const CpuFeatures& f) {
  // BW is required for the 8/16-bit lane compares; F alone cannot serve
  // all four key widths, so it does not qualify.
  if (f.avx512f && f.avx512bw) return DispatchLevel::kAvx512;
  if (f.avx2) return DispatchLevel::kAvx2;
  if (f.sse2 && f.sse42 && f.popcnt) return DispatchLevel::kSse;
  return DispatchLevel::kScalar;
}

bool NativeKernelsCompiled(int register_bits) {
  switch (register_bits) {
    case 128:
      return kHaveSse;
    case 256:
      return internal::kKernels256Built;
    case 512:
      return internal::kKernels512Built;
    default:
      return false;
  }
}

namespace {

int RegisterBitsForLevel(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kAvx512:
      return 512;
    case DispatchLevel::kAvx2:
      return 256;
    case DispatchLevel::kSse:
    case DispatchLevel::kScalar:
      return 128;
  }
  return 128;
}

// Whether this binary carries the native kernels a forced level needs.
bool LevelCompiledIn(DispatchLevel level) {
  return level == DispatchLevel::kScalar ||
         NativeKernelsCompiled(RegisterBitsForLevel(level));
}

}  // namespace

bool CpuFillsRegistry(int register_bits, const CpuFeatures& f) {
  return register_bits > 128 &&
         RegisterBitsForLevel(MaxSupportedLevel(f)) >= register_bits;
}

bool ResolveDispatchLevel(const CpuFeatures& f, const char* force,
                          DispatchLevel* out, std::string* error) {
  DispatchLevel max = MaxSupportedLevel(f);
  // Auto mode never selects a level whose kernels are absent from this
  // binary — it degrades to the widest level actually present.
  while (!LevelCompiledIn(max) && max != DispatchLevel::kScalar) {
    max = static_cast<DispatchLevel>(static_cast<int>(max) - 1);
  }
  if (force == nullptr || force[0] == '\0') {
    *out = max;
    return true;
  }

  DispatchLevel want;
  if (std::strcmp(force, "scalar") == 0) {
    want = DispatchLevel::kScalar;
  } else if (std::strcmp(force, "sse") == 0) {
    want = DispatchLevel::kSse;
  } else if (std::strcmp(force, "avx2") == 0) {
    want = DispatchLevel::kAvx2;
  } else if (std::strcmp(force, "avx512") == 0) {
    want = DispatchLevel::kAvx512;
  } else {
    if (error != nullptr) {
      *error = std::string("SIMDTREE_FORCE_BACKEND='") + force +
               "' is not a known backend (valid: scalar, sse, avx2, avx512)";
    }
    return false;
  }

  const DispatchLevel cpu_max = MaxSupportedLevel(f);
  if (static_cast<int>(want) > static_cast<int>(cpu_max)) {
    if (error != nullptr) {
      *error = std::string("SIMDTREE_FORCE_BACKEND=") + force +
               " but this CPU only supports " + DispatchLevelName(cpu_max) +
               " (features: " + CpuFeatureString() + ")";
    }
    return false;
  }
  if (!LevelCompiledIn(want)) {
    if (error != nullptr) {
      *error = std::string("SIMDTREE_FORCE_BACKEND=") + force +
               " but this binary was built without " + DispatchLevelName(want) +
               " kernels";
    }
    return false;
  }
  *out = want;
  return true;
}

namespace {

// Out of line, so ActiveDispatch's fast path (every routed search) is
// the guard check alone.
[[gnu::noinline]] DispatchDecision ResolveActiveDispatch() {
  // Fill the registries this CPU runs before any search reads them.
  const CpuFeatures features = DetectCpuFeatures();
  if (CpuFillsRegistry(256, features)) internal::LinkKernels256();
  if (CpuFillsRegistry(512, features)) internal::LinkKernels512();
  const char* force = std::getenv("SIMDTREE_FORCE_BACKEND");
  DispatchLevel level = DispatchLevel::kScalar;
  std::string error;
  if (!ResolveDispatchLevel(features, force, &level, &error)) {
    std::fprintf(stderr, "simdtree: %s\n", error.c_str());
    std::exit(2);
  }
  DispatchDecision d;
  d.level = level;
  d.register_bits = RegisterBitsForLevel(level);
  d.forced = force != nullptr && force[0] != '\0';
  return d;
}

}  // namespace

const DispatchDecision& ActiveDispatch() {
  static const DispatchDecision decision = ResolveActiveDispatch();
  return decision;
}

const char* EffectiveBackendName(int register_bits) {
  if (!DispatchWantsNative(register_bits) ||
      !NativeKernelsCompiled(register_bits)) {
    return "scalar";
  }
  switch (register_bits) {
    case 128:
      return "sse";
    case 256:
      return "avx2";
    case 512:
      return "avx512";
    default:
      return "scalar";
  }
}

}  // namespace simdtree::simd
