//===- tensor/KernelsAvx2.cpp - AVX2+FMA kernel table ----------*- C++ -*-===//
//
// Compiled with -mavx2 -mfma -ffp-contract=off. The contract=off matters:
// the elementwise kernels must stay mul-then-add per element so their bits
// match the scalar table exactly; only the reduction kernels use FMA, and
// there it is spelled with explicit fmadd intrinsics / std::fma so the
// lane order detail::dotLanes documents is the one that actually runs.
// The kernel bodies live in tensor/SimdKernels.h; this file supplies the
// 4-lane vector traits.
//
//===----------------------------------------------------------------------===//

#include "tensor/Kernels.h"

#if DEEPT_HAVE_AVX2

#include "tensor/SimdKernels.h"

#include <immintrin.h>

namespace deept {
namespace tensor {
namespace detail {
namespace {

struct Avx2 {
  using V = __m256d;
  static constexpr size_t L = 4;
  static constexpr Isa Tag = Isa::Avx2;
  static V zero() { return _mm256_setzero_pd(); }
  static V load(const double *P) { return _mm256_loadu_pd(P); }
  static void store(double *P, V A) { _mm256_storeu_pd(P, A); }
  static V set1(double X) { return _mm256_set1_pd(X); }
  static V add(V A, V B) { return _mm256_add_pd(A, B); }
  static V sub(V A, V B) { return _mm256_sub_pd(A, B); }
  static V mul(V A, V B) { return _mm256_mul_pd(A, B); }
  static V max(V A, V B) { return _mm256_max_pd(A, B); }
  static V abs(V A) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), A); }
  static V fmadd(V A, V B, V C) { return _mm256_fmadd_pd(A, B, C); }
  /// Pairwise-halving horizontal sum: (l0+l2) + (l1+l3), matching
  /// detail::dotLanes' reduction order for Lanes == 4.
  static double reduceLanes(V A) {
    __m128d Lo = _mm256_castpd256_pd128(A);
    __m128d Hi = _mm256_extractf128_pd(A, 1);
    __m128d S = _mm_add_pd(Lo, Hi); // (l0+l2, l1+l3)
    return _mm_cvtsd_f64(S) + _mm_cvtsd_f64(_mm_unpackhi_pd(S, S));
  }
  static unsigned positiveLanes(V G) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(G, zero(), _CMP_GT_OQ)));
  }
  static V blend(unsigned Bits, V A, V B) {
    __m256i Lane = _mm256_setr_epi64x(1, 2, 4, 8);
    __m256i Set = _mm256_and_si256(_mm256_set1_epi64x(Bits), Lane);
    return _mm256_blendv_pd(B, A,
                            _mm256_castsi256_pd(_mm256_cmpeq_epi64(Set, Lane)));
  }
};

} // namespace

// extern: const at namespace scope would otherwise get internal linkage,
// and the dispatcher in Kernels.cpp references this table by name.
extern const Kernels Avx2Kernels;
constinit const Kernels Avx2Kernels = simdKernelTable<Avx2>();

} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_HAVE_AVX2
