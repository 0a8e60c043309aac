// AVX-512 (512-bit) kernel registration TU.
//
// Compiled with per-source -mavx512f -mavx512bw (src/CMakeLists.txt):
// the one binary built with default flags carries native 512-bit
// compare-mask kernels (k = 65/33/17/9 for 8/16/32/64-bit keys) and
// selects them at runtime when CpuFeatures reports AVX-512F+BW, the
// only CPUs on which simd::ActiveDispatch calls LinkKernels512()
// (simd::CpuFillsRegistry). See kary/dispatch_kernels.h for the registry
// contract.

#include "simd/dispatch.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)
#include "kary/kernels_registrar.h"
#endif

namespace simdtree::simd::internal {

#if defined(__AVX512F__) && defined(__AVX512BW__)
extern const bool kKernels512Built = true;
void LinkKernels512() {
  kary::registrar::RegisterNativeKernels<Backend::kAvx512, 512>();
}
#else
extern const bool kKernels512Built = false;  // toolchain lacks AVX-512F+BW
void LinkKernels512() {}
#endif

}  // namespace simdtree::simd::internal
