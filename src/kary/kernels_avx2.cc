// AVX2 (256-bit) kernel registration TU.
//
// Compiled with per-source -mavx2 (src/CMakeLists.txt) regardless of
// the global SIMDTREE_AVX2 option, so a baseline-SSE binary still
// carries 256-bit kernels and selects them at runtime on AVX2 hardware.
// Every function here may contain AVX2 instructions: simd::ActiveDispatch
// calls LinkKernels256() only on a CPU with AVX2 (simd::CpuFillsRegistry).
// See kary/dispatch_kernels.h for the registry contract and
// simd/dispatch.h for the decision that routes calls here.

#include "simd/dispatch.h"

#if defined(__AVX2__)
#include "kary/kernels_registrar.h"
#endif

namespace simdtree::simd::internal {

#if defined(__AVX2__)
extern const bool kKernels256Built = true;
void LinkKernels256() {
  kary::registrar::RegisterNativeKernels<Backend::kSse, 256>();
}
#else
extern const bool kKernels256Built = false;  // toolchain lacks AVX2
void LinkKernels256() {}
#endif

}  // namespace simdtree::simd::internal
