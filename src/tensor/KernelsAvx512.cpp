//===- tensor/KernelsAvx512.cpp - AVX-512 kernel table ---------*- C++ -*-===//
//
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off. Same
// body as the AVX2 table (tensor/SimdKernels.h) with L = 8: elementwise
// kernels stay mul-then-add (bit-identical to scalar), reductions are
// lane-ordered FMA with the 512 -> 256 -> 128 pairwise-halving horizontal
// sum that detail::dotLanes emulates for Lanes == 8.
//
//===----------------------------------------------------------------------===//

#include "tensor/Kernels.h"

#if DEEPT_HAVE_AVX512

#include "tensor/SimdKernels.h"

#include <immintrin.h>

namespace deept {
namespace tensor {
namespace detail {
namespace {

struct Avx512 {
  using V = __m512d;
  static constexpr size_t L = 8;
  static constexpr Isa Tag = Isa::Avx512;
  static V zero() { return _mm512_setzero_pd(); }
  static V load(const double *P) { return _mm512_loadu_pd(P); }
  static void store(double *P, V A) { _mm512_storeu_pd(P, A); }
  static V set1(double X) { return _mm512_set1_pd(X); }
  static V add(V A, V B) { return _mm512_add_pd(A, B); }
  static V sub(V A, V B) { return _mm512_sub_pd(A, B); }
  static V mul(V A, V B) { return _mm512_mul_pd(A, B); }
  static V max(V A, V B) { return _mm512_max_pd(A, B); }
  static V abs(V A) { return _mm512_abs_pd(A); }
  static V fmadd(V A, V B, V C) { return _mm512_fmadd_pd(A, B, C); }
  /// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)): halve 512 -> 256, then reuse
  /// the 4-lane cascade, matching detail::dotLanes for Lanes == 8.
  static double reduceLanes(V A) {
    __m256d Half = _mm256_add_pd(_mm512_castpd512_pd256(A),
                                 _mm512_extractf64x4_pd(A, 1));
    __m128d Lo = _mm256_castpd256_pd128(Half);
    __m128d Hi = _mm256_extractf128_pd(Half, 1);
    __m128d S = _mm_add_pd(Lo, Hi);
    return _mm_cvtsd_f64(S) + _mm_cvtsd_f64(_mm_unpackhi_pd(S, S));
  }
  static unsigned positiveLanes(V G) {
    return _mm512_cmp_pd_mask(G, zero(), _CMP_GT_OQ);
  }
  static V blend(unsigned Bits, V A, V B) {
    return _mm512_mask_blend_pd(static_cast<__mmask8>(Bits), B, A);
  }
};

} // namespace

// extern: const at namespace scope would otherwise get internal linkage,
// and the dispatcher in Kernels.cpp references this table by name.
extern const Kernels Avx512Kernels;
constinit const Kernels Avx512Kernels = simdKernelTable<Avx512>();

} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_HAVE_AVX512
