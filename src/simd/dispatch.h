// Runtime SIMD backend dispatch.
//
// The library is compiled for a baseline instruction set (SSE4.2 and
// POPCNT, plus AVX2 unless SIMDTREE_AVX2=OFF), but every binary carries
// wider kernels than its baseline: src/kary/kernels_avx2.cc and
// kernels_avx512.cc are always compiled, with per-translation-unit
// target flags, and on a CPU that runs their ISA register their entry
// points in function-pointer tables (kary/dispatch_kernels.h); on any
// other CPU none of their code runs. Search functions templated on
// Backend::kDispatch — the default backend — consult the decision here
// and take one route (kary/kary_search.h, DispatchRoute) to the widest
// kernel the running CPU supports, falling back to the scalar image
// when a width's native kernels are absent from the binary.
//
// The decision is resolved once, from DetectCpuFeatures() plus the
// SIMDTREE_FORCE_BACKEND environment override
// (scalar | sse | avx2 | avx512). A forced backend the CPU cannot
// execute, or one whose kernels this binary does not carry, is rejected
// with a clear error: silently downgrading a forced backend would make
// "reproduce this measurement" lie. SIMDTREE_FORCE_BACKEND=sse is the
// paper's fixed-ISA run: 128-bit structures search with SSE and wider
// ones with their scalar images.
//
// Register width vs. backend: the k-ary fanout (k = lanes + 1) is baked
// into a structure's linearized layout at construction, so the register
// width is a compile-time parameter of each structure, not part of this
// runtime decision. The decision controls (a) which *implementation*
// serves a given width (native vs. scalar image) and (b) the
// recommended width for new structures (ActiveRegisterBits).

#ifndef SIMDTREE_SIMD_DISPATCH_H_
#define SIMDTREE_SIMD_DISPATCH_H_

#include <string>

#include "simd/cpu_features.h"

namespace simdtree::simd {

// Widest instruction family the dispatch may use, in strictly
// increasing order so levels compare numerically.
enum class DispatchLevel {
  kScalar = 0,
  kSse = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

// "scalar" | "sse" | "avx2" | "avx512" — the SIMDTREE_FORCE_BACKEND
// vocabulary and the bench-header/metrics spelling.
const char* DispatchLevelName(DispatchLevel level);

struct DispatchDecision {
  DispatchLevel level = DispatchLevel::kScalar;
  // Widest register width (bits) the level searches natively; also the
  // recommended width for newly built structures. 128 for kScalar too:
  // the scalar image of the paper's 128-bit layout.
  int register_bits = 128;
  bool forced = false;  // SIMDTREE_FORCE_BACKEND was set (and honored)
};

// Widest level the CPU can execute (independent of what this binary
// carries).
DispatchLevel MaxSupportedLevel(const CpuFeatures& f);

// Whether this binary contains native kernels for the given register
// width (128/256/512): baseline SSE for 128, the kernels_avx2.cc
// registry for 256, the kernels_avx512.cc registry for 512. A pure
// query: it runs none of the wider-ISA code, so any CPU may ask.
bool NativeKernelsCompiled(int register_bits);

// Whether a CPU may fill the kernels_avx2.cc (256) or kernels_avx512.cc
// (512) registry. Filling runs code compiled for that ISA, so only a
// CPU that executes it does: an SSE4.2-only CPU fills neither.
bool CpuFillsRegistry(int register_bits, const CpuFeatures& f);

// Pure resolution step, testable without process state: applies `force`
// (the SIMDTREE_FORCE_BACKEND value; nullptr/empty = auto) against the
// detected features and the compiled-in kernels. Returns false and
// fills *error when the forced backend cannot run.
bool ResolveDispatchLevel(const CpuFeatures& f, const char* force,
                          DispatchLevel* out, std::string* error);

// The process-wide decision, resolved on first use from
// DetectCpuFeatures() and SIMDTREE_FORCE_BACKEND; resolving it fills
// the registries CpuFillsRegistry allows, whatever level is forced. An
// invalid override prints the error and exits with status 2 — a forced
// measurement must never silently run on a different backend.
const DispatchDecision& ActiveDispatch();

inline int ActiveRegisterBits() { return ActiveDispatch().register_bits; }

inline const char* ActiveDispatchName() {
  return DispatchLevelName(ActiveDispatch().level);
}

// Whether a kDispatch-routed search at the given structure width should
// take the native path (the caller still falls back to scalar when the
// binary lacks that width's kernels).
inline bool DispatchWantsNative(int register_bits) {
  const int level = static_cast<int>(ActiveDispatch().level);
  switch (register_bits) {
    case 128:
      return level >= static_cast<int>(DispatchLevel::kSse);
    case 256:
      return level >= static_cast<int>(DispatchLevel::kAvx2);
    case 512:
      return level >= static_cast<int>(DispatchLevel::kAvx512);
    default:
      return false;
  }
}

// The effective implementation name for searches over structures of the
// given width under the active decision ("avx512", "avx2", "sse", or
// "scalar") — what benches should label per-width measurements with.
const char* EffectiveBackendName(int register_bits);

namespace internal {

// Defined in the per-ISA kernel TUs (kary/kernels_avx2.cc,
// kary/kernels_avx512.cc); referencing them from dispatch.cc makes the
// static-archive linker pull those TUs in. kKernels*Built says whether
// the toolchain could target the TU's ISA (reading it runs no code).
// LinkKernels*() fills that width's registry with code of the TU's ISA:
// only ActiveDispatch calls it, when CpuFillsRegistry allows.
extern const bool kKernels256Built;
extern const bool kKernels512Built;
void LinkKernels256();
void LinkKernels512();

}  // namespace internal

}  // namespace simdtree::simd

#endif  // SIMDTREE_SIMD_DISPATCH_H_
