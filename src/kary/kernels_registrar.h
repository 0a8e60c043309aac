// Shared registration body for the per-ISA kernel translation units
// (kernels_avx2.cc, kernels_avx512.cc), called from their link anchors.
// Included ONLY by those TUs — each is compiled with its own target
// flags, so every template instantiated here is emitted with that TU's
// instruction set.
//
// RegisterNativeKernels<B, kBits>() fills the NativeKernels tables
// (kary/dispatch_kernels.h) for all eight integer key types and all
// three bitmask-evaluation policies. The registered functions are
// wrapper specializations whose (Backend, width) template arguments are
// instantiated by no other TU in the build, so the addresses stored in
// the tables always resolve to code compiled in the registering TU.
//
// Keep this header free of std::vector and other allocating std::
// templates: see dispatch_kernels.h on the wrong-ISA vague-linkage
// hazard. Everything below bottoms out in fixed-size arrays and
// intrinsics.

#ifndef SIMDTREE_KARY_KERNELS_REGISTRAR_H_
#define SIMDTREE_KARY_KERNELS_REGISTRAR_H_

#include <cstdint>

#include "kary/batch_search.h"
#include "kary/dispatch_kernels.h"
#include "kary/kary_search.h"
#include "simd/bitmask_eval.h"

namespace simdtree::kary::registrar {

template <typename T, typename Eval, simd::Backend B, int kBits>
struct Wrappers {
  static int64_t Bf(const T* lin, int64_t stored_slots, int64_t n, T v,
                    SearchCounters* counters) {
    if (counters == nullptr) {
      return UpperBoundBf<T, Eval, B, kBits>(lin, stored_slots, n, v);
    }
    return UpperBoundBf<T, Eval, B, kBits>(lin, stored_slots, n, v, counters);
  }
  static int64_t Df(const T* lin, int64_t perfect_slots, int64_t n, T v,
                    SearchCounters* counters) {
    if (counters == nullptr) {
      return UpperBoundDf<T, Eval, B, kBits>(lin, perfect_slots, n, v);
    }
    return UpperBoundDf<T, Eval, B, kBits>(lin, perfect_slots, n, v,
                                           counters);
  }
  static void BfGroup(const T* const* lin, const int64_t* stored_slots,
                      const int64_t* n, const T* vals, int g, int64_t* out,
                      SearchCounters* counters) {
    UpperBoundBfGroup<T, Eval, B, kBits>(lin, stored_slots, n, vals, g, out,
                                         counters);
  }
  static void DfGroup(const T* const* lin, const int64_t* perfect_slots,
                      const int64_t* n, const T* vals, int g, int64_t* out,
                      SearchCounters* counters) {
    UpperBoundDfGroup<T, Eval, B, kBits>(lin, perfect_slots, n, vals, g, out,
                                         counters);
  }
  static uint64_t GtMask(const T* keys, T v) {
    using Ops = simd::Ops<T, B, kBits>;
    return static_cast<uint64_t>(
        Ops::MoveMask(Ops::CmpGt(Ops::LoadUnaligned(keys), Ops::Set1(v))));
  }
  static uint64_t EqMask(const T* keys, T v) {
    using Ops = simd::Ops<T, B, kBits>;
    return static_cast<uint64_t>(
        Ops::MoveMask(Ops::CmpEq(Ops::LoadUnaligned(keys), Ops::Set1(v))));
  }
};

template <typename T, typename Eval, simd::Backend B, int kBits>
void RegisterOne() {
  using W = Wrappers<T, Eval, B, kBits>;
  auto& table = NativeKernels<T, Eval, kBits>::instance;
  table.upper_bound_bf = &W::Bf;
  table.upper_bound_df = &W::Df;
  table.upper_bound_bf_group = &W::BfGroup;
  table.upper_bound_df_group = &W::DfGroup;
  table.cmp_gt_mask = &W::GtMask;
  table.cmp_eq_mask = &W::EqMask;
}

template <typename T, simd::Backend B, int kBits>
void RegisterEvals() {
  RegisterOne<T, simd::BitShiftEval, B, kBits>();
  RegisterOne<T, simd::SwitchCaseEval, B, kBits>();
  RegisterOne<T, simd::PopcountEval, B, kBits>();
}

template <simd::Backend B, int kBits>
void RegisterNativeKernels() {
  RegisterEvals<int8_t, B, kBits>();
  RegisterEvals<uint8_t, B, kBits>();
  RegisterEvals<int16_t, B, kBits>();
  RegisterEvals<uint16_t, B, kBits>();
  RegisterEvals<int32_t, B, kBits>();
  RegisterEvals<uint32_t, B, kBits>();
  RegisterEvals<int64_t, B, kBits>();
  RegisterEvals<uint64_t, B, kBits>();
}

}  // namespace simdtree::kary::registrar

#endif  // SIMDTREE_KARY_KERNELS_REGISTRAR_H_
