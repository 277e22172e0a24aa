//===- tensor/KernelsAvx2.cpp - AVX2+FMA kernel table ----------*- C++ -*-===//
//
// Compiled with -mavx2 -mfma -ffp-contract=off. The contract=off matters:
// the elementwise kernels below must stay mul-then-add per element so their
// bits match the scalar table exactly; only the reduction kernels use FMA,
// and there it is spelled with explicit fmadd intrinsics / std::fma so the
// lane order detail::dotLanes documents is the one that actually runs.
//
//===----------------------------------------------------------------------===//

#include "tensor/Kernels.h"

#if DEEPT_HAVE_AVX2

#include "tensor/PreciseEpsKernel.h"

#include <algorithm>
#include <cmath>
#include <immintrin.h>

namespace deept {
namespace tensor {
namespace detail {
namespace {

constexpr size_t L = 4; // doubles per __m256d

inline __m256d absPd(__m256d V) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), V);
}

/// Pairwise-halving horizontal sum: (l0+l2) + (l1+l3), matching
/// detail::dotLanes' reduction order for Lanes == 4.
inline double reduceLanes(__m256d V) {
  __m128d Lo = _mm256_castpd256_pd128(V);
  __m128d Hi = _mm256_extractf128_pd(V, 1);
  __m128d S = _mm_add_pd(Lo, Hi); // (l0+l2, l1+l3)
  return _mm_cvtsd_f64(S) + _mm_cvtsd_f64(_mm_unpackhi_pd(S, S));
}

bool allZeroRow(const double *P, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (P[I] != 0.0)
      return false;
  return true;
}

// One non-zero A row of the A * B^T kernel, shared between the per-plane
// and the whole-plane kernels so both produce the same bits.
void avx2DotRowTB(const double *ARow, const double *B, size_t M, size_t D,
                  double *CRow, bool Accumulate) {
  const size_t DV = D - D % L;
  size_t J = 0;
  for (; J + 4 <= M; J += 4) {
    const double *B0 = B + J * D, *B1 = B + (J + 1) * D;
    const double *B2 = B + (J + 2) * D, *B3 = B + (J + 3) * D;
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    if (DV) {
      __m256d A0 = _mm256_setzero_pd(), A1 = _mm256_setzero_pd();
      __m256d A2 = _mm256_setzero_pd(), A3 = _mm256_setzero_pd();
      for (size_t K = 0; K < DV; K += L) {
        __m256d AV = _mm256_loadu_pd(ARow + K);
        A0 = _mm256_fmadd_pd(AV, _mm256_loadu_pd(B0 + K), A0);
        A1 = _mm256_fmadd_pd(AV, _mm256_loadu_pd(B1 + K), A1);
        A2 = _mm256_fmadd_pd(AV, _mm256_loadu_pd(B2 + K), A2);
        A3 = _mm256_fmadd_pd(AV, _mm256_loadu_pd(B3 + K), A3);
      }
      S0 = reduceLanes(A0);
      S1 = reduceLanes(A1);
      S2 = reduceLanes(A2);
      S3 = reduceLanes(A3);
    }
    for (size_t K = DV; K < D; ++K) {
      double AV = ARow[K];
      S0 = std::fma(AV, B0[K], S0);
      S1 = std::fma(AV, B1[K], S1);
      S2 = std::fma(AV, B2[K], S2);
      S3 = std::fma(AV, B3[K], S3);
    }
    if (Accumulate) {
      CRow[J] += S0;
      CRow[J + 1] += S1;
      CRow[J + 2] += S2;
      CRow[J + 3] += S3;
    } else {
      CRow[J] = S0;
      CRow[J + 1] = S1;
      CRow[J + 2] = S2;
      CRow[J + 3] = S3;
    }
  }
  for (; J < M; ++J) {
    const double *BRow = B + J * D;
    double S = 0.0;
    if (DV) {
      __m256d Acc = _mm256_setzero_pd();
      for (size_t K = 0; K < DV; K += L)
        Acc = _mm256_fmadd_pd(_mm256_loadu_pd(ARow + K), _mm256_loadu_pd(BRow + K), Acc);
      S = reduceLanes(Acc);
    }
    for (size_t K = DV; K < D; ++K)
      S = std::fma(ARow[K], BRow[K], S);
    if (Accumulate)
      CRow[J] += S;
    else
      CRow[J] = S;
  }
}

// Two non-zero A rows against the same four B columns. Each output element
// keeps its own accumulator with the exact lane-ordered FMA sequence of
// avx2DotRowTB, so the bits match the one-row kernel; sharing the B loads
// across both rows halves the load traffic and makes the loop FMA-bound.
void avx2DotRow2TB(const double *ARow0, const double *ARow1, const double *B,
                   size_t M, size_t D, double *CRow0, double *CRow1,
                   bool Accumulate) {
  const size_t DV = D - D % L;
  size_t J = 0;
  for (; J + 4 <= M; J += 4) {
    const double *B0 = B + J * D, *B1 = B + (J + 1) * D;
    const double *B2 = B + (J + 2) * D, *B3 = B + (J + 3) * D;
    double S00 = 0.0, S01 = 0.0, S02 = 0.0, S03 = 0.0;
    double S10 = 0.0, S11 = 0.0, S12 = 0.0, S13 = 0.0;
    if (DV) {
      __m256d A00 = _mm256_setzero_pd(), A01 = _mm256_setzero_pd();
      __m256d A02 = _mm256_setzero_pd(), A03 = _mm256_setzero_pd();
      __m256d A10 = _mm256_setzero_pd(), A11 = _mm256_setzero_pd();
      __m256d A12 = _mm256_setzero_pd(), A13 = _mm256_setzero_pd();
      for (size_t K = 0; K < DV; K += L) {
        __m256d AV0 = _mm256_loadu_pd(ARow0 + K);
        __m256d AV1 = _mm256_loadu_pd(ARow1 + K);
        __m256d BV0 = _mm256_loadu_pd(B0 + K);
        __m256d BV1 = _mm256_loadu_pd(B1 + K);
        __m256d BV2 = _mm256_loadu_pd(B2 + K);
        __m256d BV3 = _mm256_loadu_pd(B3 + K);
        A00 = _mm256_fmadd_pd(AV0, BV0, A00);
        A01 = _mm256_fmadd_pd(AV0, BV1, A01);
        A02 = _mm256_fmadd_pd(AV0, BV2, A02);
        A03 = _mm256_fmadd_pd(AV0, BV3, A03);
        A10 = _mm256_fmadd_pd(AV1, BV0, A10);
        A11 = _mm256_fmadd_pd(AV1, BV1, A11);
        A12 = _mm256_fmadd_pd(AV1, BV2, A12);
        A13 = _mm256_fmadd_pd(AV1, BV3, A13);
      }
      S00 = reduceLanes(A00);
      S01 = reduceLanes(A01);
      S02 = reduceLanes(A02);
      S03 = reduceLanes(A03);
      S10 = reduceLanes(A10);
      S11 = reduceLanes(A11);
      S12 = reduceLanes(A12);
      S13 = reduceLanes(A13);
    }
    for (size_t K = DV; K < D; ++K) {
      double AV0 = ARow0[K], AV1 = ARow1[K];
      S00 = std::fma(AV0, B0[K], S00);
      S01 = std::fma(AV0, B1[K], S01);
      S02 = std::fma(AV0, B2[K], S02);
      S03 = std::fma(AV0, B3[K], S03);
      S10 = std::fma(AV1, B0[K], S10);
      S11 = std::fma(AV1, B1[K], S11);
      S12 = std::fma(AV1, B2[K], S12);
      S13 = std::fma(AV1, B3[K], S13);
    }
    if (Accumulate) {
      CRow0[J] += S00;
      CRow0[J + 1] += S01;
      CRow0[J + 2] += S02;
      CRow0[J + 3] += S03;
      CRow1[J] += S10;
      CRow1[J + 1] += S11;
      CRow1[J + 2] += S12;
      CRow1[J + 3] += S13;
    } else {
      CRow0[J] = S00;
      CRow0[J + 1] = S01;
      CRow0[J + 2] = S02;
      CRow0[J + 3] = S03;
      CRow1[J] = S10;
      CRow1[J + 1] = S11;
      CRow1[J + 2] = S12;
      CRow1[J + 3] = S13;
    }
  }
  for (; J < M; ++J) {
    const double *BRow = B + J * D;
    double S0 = 0.0, S1 = 0.0;
    if (DV) {
      __m256d Acc0 = _mm256_setzero_pd(), Acc1 = _mm256_setzero_pd();
      for (size_t K = 0; K < DV; K += L) {
        __m256d BV = _mm256_loadu_pd(BRow + K);
        Acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ARow0 + K), BV, Acc0);
        Acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(ARow1 + K), BV, Acc1);
      }
      S0 = reduceLanes(Acc0);
      S1 = reduceLanes(Acc1);
    }
    for (size_t K = DV; K < D; ++K) {
      S0 = std::fma(ARow0[K], BRow[K], S0);
      S1 = std::fma(ARow1[K], BRow[K], S1);
    }
    if (Accumulate) {
      CRow0[J] += S0;
      CRow1[J] += S1;
    } else {
      CRow0[J] = S0;
      CRow1[J] = S1;
    }
  }
}

void avx2DotTransposedB(const double *A, size_t N, const double *B, size_t M,
                        size_t D, double *C, bool Accumulate) {
  size_t I = 0;
  while (I < N) {
    const double *ARow = A + I * D;
    double *CRow = C + I * M;
    if (allZeroRow(ARow, D)) {
      // Zero row: the output row is exactly zero, so fill it (callers may
      // pass uninitialized C) unless accumulating (+0 is an identity).
      if (!Accumulate)
        std::fill(CRow, CRow + M, 0.0);
      ++I;
      continue;
    }
    // Pair with the next row when it is also non-zero: the two rows share
    // the B loads without changing either row's reduction order.
    if (I + 1 < N && !allZeroRow(ARow + D, D)) {
      avx2DotRow2TB(ARow, ARow + D, B, M, D, CRow, CRow + M, Accumulate);
      I += 2;
      continue;
    }
    avx2DotRowTB(ARow, B, M, D, CRow, Accumulate);
    ++I;
  }
}

double avx2Dot(const double *X, const double *Y, size_t N) {
  const size_t NV = N - N % L;
  double S = 0.0;
  // All-tail shapes (N < L) skip the vector spin-up; reduceLanes of an
  // empty accumulator is exactly +0.0, so the bits are unchanged.
  if (NV) {
    __m256d Acc = _mm256_setzero_pd();
    for (size_t K = 0; K < NV; K += L)
      Acc = _mm256_fmadd_pd(_mm256_loadu_pd(X + K), _mm256_loadu_pd(Y + K), Acc);
    S = reduceLanes(Acc);
  }
  for (size_t K = NV; K < N; ++K)
    S = std::fma(X[K], Y[K], S);
  return S;
}

double avx2Sum(const double *X, size_t N) {
  const size_t NV = N - N % L;
  double S = 0.0;
  if (NV) {
    __m256d Acc = _mm256_setzero_pd();
    for (size_t K = 0; K < NV; K += L)
      Acc = _mm256_add_pd(Acc, _mm256_loadu_pd(X + K));
    S = reduceLanes(Acc);
  }
  for (size_t K = NV; K < N; ++K)
    S += X[K];
  return S;
}

void avx2Axpy(double A, const double *X, double *Y, size_t N) {
  const size_t NV = N - N % L;
  __m256d AV = _mm256_set1_pd(A);
  for (size_t I = 0; I < NV; I += L)
    _mm256_storeu_pd(Y + I,
                     _mm256_add_pd(_mm256_loadu_pd(Y + I),
                                   _mm256_mul_pd(AV, _mm256_loadu_pd(X + I))));
  for (size_t I = NV; I < N; ++I)
    Y[I] += A * X[I];
}

void avx2Axpy4(const double *V, const double *B, double *C0, double *C1,
               double *C2, double *C3, size_t M) {
  const size_t MV = M - M % L;
  __m256d V0 = _mm256_set1_pd(V[0]), V1 = _mm256_set1_pd(V[1]);
  __m256d V2 = _mm256_set1_pd(V[2]), V3 = _mm256_set1_pd(V[3]);
  for (size_t J = 0; J < MV; J += L) {
    __m256d BV = _mm256_loadu_pd(B + J);
    _mm256_storeu_pd(C0 + J, _mm256_add_pd(_mm256_loadu_pd(C0 + J),
                                           _mm256_mul_pd(V0, BV)));
    _mm256_storeu_pd(C1 + J, _mm256_add_pd(_mm256_loadu_pd(C1 + J),
                                           _mm256_mul_pd(V1, BV)));
    _mm256_storeu_pd(C2 + J, _mm256_add_pd(_mm256_loadu_pd(C2 + J),
                                           _mm256_mul_pd(V2, BV)));
    _mm256_storeu_pd(C3 + J, _mm256_add_pd(_mm256_loadu_pd(C3 + J),
                                           _mm256_mul_pd(V3, BV)));
  }
  for (size_t J = MV; J < M; ++J) {
    double BV = B[J];
    C0[J] += V[0] * BV;
    C1[J] += V[1] * BV;
    C2[J] += V[2] * BV;
    C3[J] += V[3] * BV;
  }
}

void avx2SubScale(const double *X, double Mean, const double *G, double *Out,
                  size_t N) {
  const size_t NV = N - N % L;
  __m256d MV = _mm256_set1_pd(Mean);
  for (size_t I = 0; I < NV; I += L)
    _mm256_storeu_pd(Out + I,
                     _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(X + I), MV),
                                   _mm256_loadu_pd(G + I)));
  for (size_t I = NV; I < N; ++I)
    Out[I] = (X[I] - Mean) * G[I];
}

void avx2AbsRow(const double *X, double *Out, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L)
    _mm256_storeu_pd(Out + I, absPd(_mm256_loadu_pd(X + I)));
  for (size_t I = NV; I < N; ++I)
    Out[I] = std::fabs(X[I]);
}

void avx2AccAbs(const double *X, double *Acc, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L)
    _mm256_storeu_pd(Acc + I, _mm256_add_pd(_mm256_loadu_pd(Acc + I),
                                            absPd(_mm256_loadu_pd(X + I))));
  for (size_t I = NV; I < N; ++I)
    Acc[I] += std::fabs(X[I]);
}

void avx2AccSq(const double *X, double *Acc, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L) {
    __m256d XV = _mm256_loadu_pd(X + I);
    _mm256_storeu_pd(Acc + I, _mm256_add_pd(_mm256_loadu_pd(Acc + I),
                                            _mm256_mul_pd(XV, XV)));
  }
  for (size_t I = NV; I < N; ++I)
    Acc[I] += X[I] * X[I];
}

void avx2AccMaxAbs(const double *X, double *Acc, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L)
    _mm256_storeu_pd(Acc + I, _mm256_max_pd(_mm256_loadu_pd(Acc + I),
                                            absPd(_mm256_loadu_pd(X + I))));
  for (size_t I = NV; I < N; ++I)
    Acc[I] = std::max(Acc[I], std::fabs(X[I]));
}

void avx2AccAbsF32(const double *X, float *Acc, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L) {
    __m128 XF = _mm256_cvtpd_ps(absPd(_mm256_loadu_pd(X + I)));
    _mm_storeu_ps(Acc + I, _mm_add_ps(_mm_loadu_ps(Acc + I), XF));
  }
  for (size_t I = NV; I < N; ++I)
    Acc[I] += static_cast<float>(std::fabs(X[I]));
}

void avx2AccSqF32(const double *X, float *Acc, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L) {
    __m128 XF = _mm256_cvtpd_ps(_mm256_loadu_pd(X + I));
    _mm_storeu_ps(Acc + I,
                  _mm_add_ps(_mm_loadu_ps(Acc + I), _mm_mul_ps(XF, XF)));
  }
  for (size_t I = NV; I < N; ++I) {
    float V = static_cast<float>(X[I]);
    Acc[I] += V * V;
  }
}

void avx2AccMaxAbsF32(const double *X, float *Acc, size_t N) {
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L) {
    __m128 XF = _mm256_cvtpd_ps(absPd(_mm256_loadu_pd(X + I)));
    _mm_storeu_ps(Acc + I, _mm_max_ps(_mm_loadu_ps(Acc + I), XF));
  }
  for (size_t I = NV; I < N; ++I)
    Acc[I] = std::max(Acc[I], static_cast<float>(std::fabs(X[I])));
}

} // namespace

// extern: const at namespace scope would otherwise get internal linkage,
// and the dispatcher in Kernels.cpp references this table by name.
extern const Kernels Avx2Kernels;
void avx2RowSums(const double *X, size_t R, size_t C, double *O) {
  for (size_t Q = 0; Q < R; ++Q)
    O[Q] = avx2Sum(X + Q * C, C);
}

void avx2Axpy4K(const double *A0, const double *A1, const double *A2,
                const double *A3, size_t K0, size_t K1, const double *B,
                double *C0, double *C1, double *C2, double *C3, size_t M) {
  for (size_t Kk = K0; Kk < K1; ++Kk) {
    double V[4] = {A0[Kk], A1[Kk], A2[Kk], A3[Kk]};
    avx2Axpy4(V, B + Kk * M, C0, C1, C2, C3, M);
  }
}

void avx2CascadeDense(const double *A, size_t S, size_t StrideA,
                      const double *B, size_t M, size_t D, double Q,
                      double *AbsS, double *T, double *Acc) {
  for (size_t Sym = 0; Sym < S; ++Sym) {
    avx2AbsRow(A + Sym * StrideA, AbsS, D);
    bool AllZero = true;
    for (size_t K = 0; K < D && AllZero; ++K)
      AllZero = AbsS[K] == 0.0;
    if (AllZero)
      continue;
    avx2DotTransposedB(AbsS, 1, B, M, D, T, /*Accumulate=*/false);
    if (Q == 1.0)
      avx2Axpy(1.0, T, Acc, M);
    else if (Q == 2.0)
      avx2AccSq(T, Acc, M);
    else
      avx2AccMaxAbs(T, Acc, M);
  }
}

void avx2DotPlanesTransposedB(const double *A, size_t StrideA, size_t N,
                              const double *B, size_t StrideB, size_t M,
                              size_t D, size_t S, double *C, size_t StrideC,
                              bool Accumulate, double *Pack) {
  if (!S || !N)
    return;
  // Pack the shared panel once into the aligned scratch (a bit copy, so
  // every dot against the packed rows reproduces the unpacked bits); a
  // shared A panel also hoists the per-row zero-skip flags, scanned once
  // here instead of once per plane.
  const double *Flags = nullptr;
  if (Pack) {
    double *P = detail::alignPack64(Pack);
    if (StrideA == 0) {
      double *F = P;
      double *Panel = P + N;
      std::copy(A, A + N * D, Panel);
      for (size_t I = 0; I < N; ++I)
        F[I] = allZeroRow(A + I * D, D) ? 0.0 : 1.0;
      A = Panel;
      Flags = F;
    } else if (StrideB == 0 && M) {
      std::copy(B, B + M * D, P);
      B = P;
    }
  }
  for (size_t Sym = 0; Sym < S; ++Sym) {
    const double *PA = A + Sym * StrideA;
    const double *PB = B + Sym * StrideB;
    double *PC = C + Sym * StrideC;
    size_t I = 0;
    while (I < N) {
      const double *ARow = PA + I * D;
      double *CRow = PC + I * M;
      if (Flags ? Flags[I] == 0.0 : allZeroRow(ARow, D)) {
        if (!Accumulate)
          std::fill(CRow, CRow + M, 0.0);
        ++I;
        continue;
      }
      // Pair with the next non-zero row so both share the B-panel loads;
      // each row keeps its own accumulators, so the bits are unchanged.
      if (I + 1 < N &&
          (Flags ? Flags[I + 1] != 0.0 : !allZeroRow(ARow + D, D))) {
        avx2DotRow2TB(ARow, ARow + D, PB, M, D, CRow, CRow + M, Accumulate);
        I += 2;
        continue;
      }
      avx2DotRowTB(ARow, PB, M, D, CRow, Accumulate);
      ++I;
    }
  }
}

void avx2RowScale(const double *Lambda, double *Rows, size_t R,
                  size_t Stride, size_t N) {
  const size_t NV = N - N % L;
  for (size_t Q = 0; Q < R; ++Q) {
    double *Row = Rows + Q * Stride;
    for (size_t I = 0; I < NV; I += L)
      _mm256_storeu_pd(Row + I, _mm256_mul_pd(_mm256_loadu_pd(Row + I),
                                              _mm256_loadu_pd(Lambda + I)));
    for (size_t I = NV; I < N; ++I)
      Row[I] *= Lambda[I];
  }
}

/// Eight lanes as two independent __m256d halves (two accumulation
/// chains per group); Dot's lane order is the 4-lane one.
struct Avx2Lanes {
  struct V {
    __m256d Lo, Hi;
  };
  static constexpr size_t DotLanes = L;
  static V zero() { return {_mm256_setzero_pd(), _mm256_setzero_pd()}; }
  static V load(const double *P) {
    return {_mm256_loadu_pd(P), _mm256_loadu_pd(P + L)};
  }
  static V broadcast(double X) {
    __m256d B = _mm256_set1_pd(X);
    return {B, B};
  }
  static void store(double *P, V A) {
    _mm256_storeu_pd(P, A.Lo);
    _mm256_storeu_pd(P + L, A.Hi);
  }
  static V add(V A, V B) {
    return {_mm256_add_pd(A.Lo, B.Lo), _mm256_add_pd(A.Hi, B.Hi)};
  }
  static V sub(V A, V B) {
    return {_mm256_sub_pd(A.Lo, B.Lo), _mm256_sub_pd(A.Hi, B.Hi)};
  }
  static V abs(V A) { return {absPd(A.Lo), absPd(A.Hi)}; }
  static V fma(V A, V B, V C) {
    return {_mm256_fmadd_pd(A.Lo, B.Lo, C.Lo),
            _mm256_fmadd_pd(A.Hi, B.Hi, C.Hi)};
  }
  static V tail(V A, V B, V C) { return fma(A, B, C); }
  static unsigned positiveLanes(V G) {
    __m256d Z = _mm256_setzero_pd();
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(G.Lo, Z, _CMP_GT_OQ)) |
        _mm256_movemask_pd(_mm256_cmp_pd(G.Hi, Z, _CMP_GT_OQ)) << 4);
  }
  static V blend(unsigned Bits, V A, V B) {
    auto Mask = [](unsigned B4) {
      __m256i Lane = _mm256_setr_epi64x(1, 2, 4, 8);
      __m256i Set = _mm256_and_si256(_mm256_set1_epi64x(B4), Lane);
      return _mm256_castsi256_pd(_mm256_cmpeq_epi64(Set, Lane));
    };
    return {_mm256_blendv_pd(B.Lo, A.Lo, Mask(Bits & 15u)),
            _mm256_blendv_pd(B.Hi, A.Hi, Mask(Bits >> 4))};
  }
};

void avx2PreciseEpsGroup(const PreciseRows &X, const PreciseRow &Y, size_t D,
                         double *Lo, double *Hi) {
  preciseEpsGroup<Avx2Lanes>(X, Y, D, Lo, Hi);
}

const Kernels Avx2Kernels = {
    Isa::Avx2,      /*Lanes=*/L,   avx2DotTransposedB,
    avx2Dot,        avx2Sum,       avx2Axpy,
    avx2Axpy4,      avx2SubScale,  avx2AbsRow,
    avx2AccAbs,     avx2AccSq,     avx2AccMaxAbs,
    avx2AccAbsF32,  avx2AccSqF32,  avx2AccMaxAbsF32,
    avx2RowSums,    avx2Axpy4K,    avx2CascadeDense,
    avx2DotPlanesTransposedB,      avx2RowScale,
    avx2PreciseEpsGroup,
};

} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_HAVE_AVX2
