// Function-pointer registries for natively-compiled k-ary search
// kernels of widths the baseline build does not carry inline.
//
// One binary, many instruction sets: the search entry points in
// kary_search.h / batch_search.h are templates, so their AVX2/AVX-512
// instantiations must be *compiled* somewhere with the matching target
// flags. That somewhere is kernels_avx2.cc and kernels_avx512.cc —
// ordinary translation units built with per-source -mavx2 /
// -mavx512f -mavx512bw flags — whose link anchors (simd/dispatch.h)
// fill these per-(key type, eval policy, width) tables with the
// addresses of their concrete-backend instantiations the first time
// they are called. A Backend::kDispatch search whose route
// (kary_search.h, DispatchRoute) reaches a width-256/512 registry looks
// its slot up at runtime and falls back to the scalar image when the
// slot is empty (a toolchain that could not target that ISA).
//
// The tables deliberately hold only *vector-leaf* kernels — functions
// whose bodies are fixed-size arrays and intrinsics. The grouped
// (frontier) engines allocate with std::vector; instantiating them in a
// TU compiled with wider target flags would emit vague-linkage copies
// of shared std:: code carrying that ISA, and the linker may prefer
// those copies binary-wide — a wrong-ISA hazard on narrower CPUs. The
// grouped engines therefore stay in baseline TUs and reach native code
// through the one-probe `compare_step` leaf.
//
// Slots are null until the owning TU's anchor runs. simd::ActiveDispatch()
// runs it on its first call, before any route reads a slot, and only on
// a CPU that executes the TU's ISA (simd::CpuFillsRegistry); elsewhere the
// slots stay null and nothing routes to them. The `instance` member is
// constant-initialized (all null), so reading it early is no
// initialization-order hazard, only a benign scalar fallback.

#ifndef SIMDTREE_KARY_DISPATCH_KERNELS_H_
#define SIMDTREE_KARY_DISPATCH_KERNELS_H_

#include <cstdint>

#include "util/counters.h"

namespace simdtree::kary {

template <typename T, typename Eval, int kBits>
struct NativeKernels {
  // Single-query upper bounds (kary_search.h Algorithms 5 / 4) and
  // pipelined batch groups (batch_search.h). A null `counters` runs the
  // uncounted instantiation, a non-null one the counted.
  int64_t (*upper_bound_bf)(const T* lin, int64_t stored_slots, int64_t n,
                            T v, SearchCounters* counters) = nullptr;
  int64_t (*upper_bound_df)(const T* lin, int64_t perfect_slots, int64_t n,
                            T v, SearchCounters* counters) = nullptr;
  void (*upper_bound_bf_group)(const T* lin, int64_t stored_slots, int64_t n,
                               const T* vals, int g, int64_t* out,
                               SearchCounters* counters) = nullptr;
  void (*upper_bound_df_group)(const T* lin, int64_t perfect_slots, int64_t n,
                               const T* vals, int g, int64_t* out,
                               SearchCounters* counters) = nullptr;

  // One SIMD comparison step against a node's keys: load, broadcast,
  // compare, evaluate (paper steps 1-5). The baseline-compiled grouped
  // engines call this per probe on short runs.
  int (*compare_step)(const T* node_keys, T v) = nullptr;

  // Raw mask probes for differential tests: the backend's CmpGt/CmpEq
  // mask image over one register load of keys at `keys`, widened to 64
  // bits. Bit-identical to the scalar image of the same width.
  uint64_t (*cmp_gt_mask)(const T* keys, T v) = nullptr;
  uint64_t (*cmp_eq_mask)(const T* keys, T v) = nullptr;

  static NativeKernels instance;
};

// Zero (constant) initialization: safe to read before any registration.
template <typename T, typename Eval, int kBits>
NativeKernels<T, Eval, kBits> NativeKernels<T, Eval, kBits>::instance{};

}  // namespace simdtree::kary

#endif  // SIMDTREE_KARY_DISPATCH_KERNELS_H_
