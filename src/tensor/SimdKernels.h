//===- tensor/SimdKernels.h - The AVX2 / AVX-512 kernel body ---*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMD kernel table, written once against a per-ISA vector-traits
/// struct and instantiated by tensor/KernelsAvx2.cpp and
/// tensor/KernelsAvx512.cpp, each compiled with its own -m flags and
/// -ffp-contract=off.
///
/// The traits type T provides
///   V, L                       the double vector type and its lane count
///   Tag                        the table's Isa
///   zero() load(p) store(p, v) set1(x)
///   add sub mul max abs        elementwise, one IEEE rounding per lane
///   fmadd(a, b, c)             fused a * b + c
///   reduceLanes(v)             the pairwise-halving horizontal sum that
///                              detail::dotLanes emulates for L lanes
///   positiveLanes(g)           bit p set when lane p of g is > 0
///   blend(bits, a, b)          lane p from a when bit p is set, else b
///
/// Elementwise kernels stay mul-then-add per element (bit-identical to the
/// scalar table); reductions are lane-ordered FMA with reduceLanes and a
/// serial std::fma tail, the order detail::dotLanes documents.
///
/// Only the kernel translation units include this header, and everything
/// in it has internal linkage: the instantiations are compiled with
/// different -m flags and must never be merged by the linker.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_TENSOR_SIMDKERNELS_H
#define DEEPT_TENSOR_SIMDKERNELS_H

#include "tensor/Kernels.h"
#include "tensor/PreciseEpsKernel.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace deept {
namespace tensor {
namespace detail {
namespace {

inline bool allZeroRow(const double *P, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (P[I] != 0.0)
      return false;
  return true;
}

// One non-zero A row of the A * B^T plane kernel.
template <class T>
void simdDotRowTB(const double *ARow, const double *B, size_t M, size_t D,
                  double *CRow, bool Accumulate) {
  using V = typename T::V;
  constexpr size_t L = T::L;
  const size_t DV = D - D % L;
  size_t J = 0;
  for (; J + 4 <= M; J += 4) {
    const double *B0 = B + J * D, *B1 = B + (J + 1) * D;
    const double *B2 = B + (J + 2) * D, *B3 = B + (J + 3) * D;
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    if (DV) {
      V A0 = T::zero(), A1 = T::zero();
      V A2 = T::zero(), A3 = T::zero();
      for (size_t K = 0; K < DV; K += L) {
        V AV = T::load(ARow + K);
        A0 = T::fmadd(AV, T::load(B0 + K), A0);
        A1 = T::fmadd(AV, T::load(B1 + K), A1);
        A2 = T::fmadd(AV, T::load(B2 + K), A2);
        A3 = T::fmadd(AV, T::load(B3 + K), A3);
      }
      S0 = T::reduceLanes(A0);
      S1 = T::reduceLanes(A1);
      S2 = T::reduceLanes(A2);
      S3 = T::reduceLanes(A3);
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
      V Acc = T::zero();
      for (size_t K = 0; K < DV; K += L)
        Acc = T::fmadd(T::load(ARow + K), T::load(BRow + K), Acc);
      S = T::reduceLanes(Acc);
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
// simdDotRowTB, so the bits match the one-row kernel; sharing the B loads
// across both rows halves the load traffic and makes the loop FMA-bound.
template <class T>
void simdDotRow2TB(const double *ARow0, const double *ARow1, const double *B,
                   size_t M, size_t D, double *CRow0, double *CRow1,
                   bool Accumulate) {
  using V = typename T::V;
  constexpr size_t L = T::L;
  const size_t DV = D - D % L;
  size_t J = 0;
  for (; J + 4 <= M; J += 4) {
    const double *B0 = B + J * D, *B1 = B + (J + 1) * D;
    const double *B2 = B + (J + 2) * D, *B3 = B + (J + 3) * D;
    double S00 = 0.0, S01 = 0.0, S02 = 0.0, S03 = 0.0;
    double S10 = 0.0, S11 = 0.0, S12 = 0.0, S13 = 0.0;
    if (DV) {
      V A00 = T::zero(), A01 = T::zero();
      V A02 = T::zero(), A03 = T::zero();
      V A10 = T::zero(), A11 = T::zero();
      V A12 = T::zero(), A13 = T::zero();
      for (size_t K = 0; K < DV; K += L) {
        V AV0 = T::load(ARow0 + K);
        V AV1 = T::load(ARow1 + K);
        V BV0 = T::load(B0 + K);
        V BV1 = T::load(B1 + K);
        V BV2 = T::load(B2 + K);
        V BV3 = T::load(B3 + K);
        A00 = T::fmadd(AV0, BV0, A00);
        A01 = T::fmadd(AV0, BV1, A01);
        A02 = T::fmadd(AV0, BV2, A02);
        A03 = T::fmadd(AV0, BV3, A03);
        A10 = T::fmadd(AV1, BV0, A10);
        A11 = T::fmadd(AV1, BV1, A11);
        A12 = T::fmadd(AV1, BV2, A12);
        A13 = T::fmadd(AV1, BV3, A13);
      }
      S00 = T::reduceLanes(A00);
      S01 = T::reduceLanes(A01);
      S02 = T::reduceLanes(A02);
      S03 = T::reduceLanes(A03);
      S10 = T::reduceLanes(A10);
      S11 = T::reduceLanes(A11);
      S12 = T::reduceLanes(A12);
      S13 = T::reduceLanes(A13);
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
      V Acc0 = T::zero(), Acc1 = T::zero();
      for (size_t K = 0; K < DV; K += L) {
        V BV = T::load(BRow + K);
        Acc0 = T::fmadd(T::load(ARow0 + K), BV, Acc0);
        Acc1 = T::fmadd(T::load(ARow1 + K), BV, Acc1);
      }
      S0 = T::reduceLanes(Acc0);
      S1 = T::reduceLanes(Acc1);
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

// One plane of A * B^T, shared by the per-plane and the whole-plane
// kernels so both produce the same bits. \p Flags, when set, holds the
// hoisted zero flags of A's rows (0.0 = all-zero row). Inlined into both
// callers, so the per-plane kernel folds the Flags tests away.
template <class T>
__attribute__((always_inline)) inline void
simdDotPlane(const double *A, size_t N, const double *B, size_t M, size_t D,
             double *C, bool Accumulate, const double *Flags) {
  size_t I = 0;
  while (I < N) {
    const double *ARow = A + I * D;
    double *CRow = C + I * M;
    if (Flags ? Flags[I] == 0.0 : allZeroRow(ARow, D)) {
      // Zero row: the output row is exactly zero, so fill it (callers may
      // pass uninitialized C) unless accumulating (+0 is an identity).
      if (!Accumulate)
        std::fill(CRow, CRow + M, 0.0);
      ++I;
      continue;
    }
    // Pair with the next row when it is also non-zero: the two rows share
    // the B loads without changing either row's reduction order.
    if (I + 1 < N &&
        (Flags ? Flags[I + 1] != 0.0 : !allZeroRow(ARow + D, D))) {
      simdDotRow2TB<T>(ARow, ARow + D, B, M, D, CRow, CRow + M, Accumulate);
      I += 2;
      continue;
    }
    simdDotRowTB<T>(ARow, B, M, D, CRow, Accumulate);
    ++I;
  }
}

template <class T>
void simdDotTransposedB(const double *A, size_t N, const double *B, size_t M,
                        size_t D, double *C, bool Accumulate) {
  simdDotPlane<T>(A, N, B, M, D, C, Accumulate, /*Flags=*/nullptr);
}

template <class T> double simdDot(const double *X, const double *Y, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  double S = 0.0;
  // All-tail shapes (N < L) skip the vector spin-up; reduceLanes of an
  // empty accumulator is exactly +0.0, so the bits are unchanged.
  if (NV) {
    typename T::V Acc = T::zero();
    for (size_t K = 0; K < NV; K += L)
      Acc = T::fmadd(T::load(X + K), T::load(Y + K), Acc);
    S = T::reduceLanes(Acc);
  }
  for (size_t K = NV; K < N; ++K)
    S = std::fma(X[K], Y[K], S);
  return S;
}

template <class T> double simdSum(const double *X, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  double S = 0.0;
  if (NV) {
    typename T::V Acc = T::zero();
    for (size_t K = 0; K < NV; K += L)
      Acc = T::add(Acc, T::load(X + K));
    S = T::reduceLanes(Acc);
  }
  for (size_t K = NV; K < N; ++K)
    S += X[K];
  return S;
}

template <class T>
void simdAxpy(double A, const double *X, double *Y, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  typename T::V AV = T::set1(A);
  for (size_t I = 0; I < NV; I += L)
    T::store(Y + I, T::add(T::load(Y + I), T::mul(AV, T::load(X + I))));
  for (size_t I = NV; I < N; ++I)
    Y[I] += A * X[I];
}

template <class T>
void simdAxpy4(const double *V, const double *B, double *C0, double *C1,
               double *C2, double *C3, size_t M) {
  using VT = typename T::V;
  constexpr size_t L = T::L;
  const size_t MV = M - M % L;
  VT V0 = T::set1(V[0]), V1 = T::set1(V[1]);
  VT V2 = T::set1(V[2]), V3 = T::set1(V[3]);
  for (size_t J = 0; J < MV; J += L) {
    VT BV = T::load(B + J);
    T::store(C0 + J, T::add(T::load(C0 + J), T::mul(V0, BV)));
    T::store(C1 + J, T::add(T::load(C1 + J), T::mul(V1, BV)));
    T::store(C2 + J, T::add(T::load(C2 + J), T::mul(V2, BV)));
    T::store(C3 + J, T::add(T::load(C3 + J), T::mul(V3, BV)));
  }
  for (size_t J = MV; J < M; ++J) {
    double BV = B[J];
    C0[J] += V[0] * BV;
    C1[J] += V[1] * BV;
    C2[J] += V[2] * BV;
    C3[J] += V[3] * BV;
  }
}

template <class T>
void simdSubScale(const double *X, double Mean, const double *G, double *Out,
                  size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  typename T::V MV = T::set1(Mean);
  for (size_t I = 0; I < NV; I += L)
    T::store(Out + I, T::mul(T::sub(T::load(X + I), MV), T::load(G + I)));
  for (size_t I = NV; I < N; ++I)
    Out[I] = (X[I] - Mean) * G[I];
}

template <class T> void simdAbsRow(const double *X, double *Out, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L)
    T::store(Out + I, T::abs(T::load(X + I)));
  for (size_t I = NV; I < N; ++I)
    Out[I] = std::fabs(X[I]);
}

template <class T> void simdAccAbs(const double *X, double *Acc, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L)
    T::store(Acc + I, T::add(T::load(Acc + I), T::abs(T::load(X + I))));
  for (size_t I = NV; I < N; ++I)
    Acc[I] += std::fabs(X[I]);
}

template <class T> void simdAccSq(const double *X, double *Acc, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L) {
    typename T::V XV = T::load(X + I);
    T::store(Acc + I, T::add(T::load(Acc + I), T::mul(XV, XV)));
  }
  for (size_t I = NV; I < N; ++I)
    Acc[I] += X[I] * X[I];
}

template <class T>
void simdAccMaxAbs(const double *X, double *Acc, size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  for (size_t I = 0; I < NV; I += L)
    T::store(Acc + I, T::max(T::load(Acc + I), T::abs(T::load(X + I))));
  for (size_t I = NV; I < N; ++I)
    Acc[I] = std::max(Acc[I], std::fabs(X[I]));
}

template <class T>
void simdRowSums(const double *X, size_t R, size_t C, double *O) {
  for (size_t Q = 0; Q < R; ++Q)
    O[Q] = simdSum<T>(X + Q * C, C);
}

template <class T>
void simdAxpy4K(const double *A0, const double *A1, const double *A2,
                const double *A3, size_t K0, size_t K1, const double *B,
                double *C0, double *C1, double *C2, double *C3, size_t M) {
  for (size_t Kk = K0; Kk < K1; ++Kk) {
    double V[4] = {A0[Kk], A1[Kk], A2[Kk], A3[Kk]};
    simdAxpy4<T>(V, B + Kk * M, C0, C1, C2, C3, M);
  }
}

template <class T>
void simdCascadeDense(const double *A, size_t S, size_t StrideA,
                      const double *B, size_t M, size_t D, double Q,
                      double *AbsS, double *Tmp, double *Acc) {
  for (size_t Sym = 0; Sym < S; ++Sym) {
    simdAbsRow<T>(A + Sym * StrideA, AbsS, D);
    bool AllZero = true;
    for (size_t K = 0; K < D && AllZero; ++K)
      AllZero = AbsS[K] == 0.0;
    if (AllZero)
      continue;
    simdDotTransposedB<T>(AbsS, 1, B, M, D, Tmp, /*Accumulate=*/false);
    if (Q == 1.0)
      simdAxpy<T>(1.0, Tmp, Acc, M);
    else if (Q == 2.0)
      simdAccSq<T>(Tmp, Acc, M);
    else
      simdAccMaxAbs<T>(Tmp, Acc, M);
  }
}

template <class T>
void simdDotPlanesTransposedB(const double *A, size_t StrideA, size_t N,
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
  for (size_t Sym = 0; Sym < S; ++Sym)
    simdDotPlane<T>(A + Sym * StrideA, N, B + Sym * StrideB, M, D,
                    C + Sym * StrideC, Accumulate, Flags);
}

template <class T>
void simdRowScale(const double *Lambda, double *Rows, size_t R, size_t Stride,
                  size_t N) {
  constexpr size_t L = T::L;
  const size_t NV = N - N % L;
  for (size_t Q = 0; Q < R; ++Q) {
    double *Row = Rows + Q * Stride;
    for (size_t I = 0; I < NV; I += L)
      T::store(Row + I, T::mul(T::load(Row + I), T::load(Lambda + I)));
    for (size_t I = NV; I < N; ++I)
      Row[I] *= Lambda[I];
  }
}

/// The Eq. 6 lane-group traits (tensor/PreciseEpsKernel.h) of an ISA whose
/// vector holds PreciseGroupLanes / Vecs doubles: with one vector per group
/// they are the ISA's own traits; otherwise the specialisation below runs
/// the group as side-by-side vectors, one accumulation chain each. Either
/// way Dot's lane order is the ISA's L-lane one with a fused tail step.
template <class T, size_t Vecs = PL / T::L> struct GroupLanes : T {
  static_assert(Vecs == 1, "one vector per lane group");
  using V = typename T::V;
  static constexpr size_t DotLanes = T::L;
  static V tail(V A, V B, V C) { return T::fmadd(A, B, C); }
};

template <class T> struct GroupLanes<T, 2> {
  static constexpr size_t L = T::L;
  static constexpr size_t DotLanes = L;
  struct V {
    typename T::V Lo, Hi;
  };
  static V zero() { return {T::zero(), T::zero()}; }
  static V load(const double *P) { return {T::load(P), T::load(P + L)}; }
  static V set1(double X) {
    typename T::V B = T::set1(X);
    return {B, B};
  }
  static void store(double *P, V A) {
    T::store(P, A.Lo);
    T::store(P + L, A.Hi);
  }
  static V add(V A, V B) { return {T::add(A.Lo, B.Lo), T::add(A.Hi, B.Hi)}; }
  static V sub(V A, V B) { return {T::sub(A.Lo, B.Lo), T::sub(A.Hi, B.Hi)}; }
  static V abs(V A) { return {T::abs(A.Lo), T::abs(A.Hi)}; }
  static V fmadd(V A, V B, V C) {
    return {T::fmadd(A.Lo, B.Lo, C.Lo), T::fmadd(A.Hi, B.Hi, C.Hi)};
  }
  static V tail(V A, V B, V C) { return fmadd(A, B, C); }
  static unsigned positiveLanes(V G) {
    return T::positiveLanes(G.Lo) | T::positiveLanes(G.Hi) << L;
  }
  static V blend(unsigned Bits, V A, V B) {
    return {T::blend(Bits & ((1u << L) - 1), A.Lo, B.Lo),
            T::blend(Bits >> L, A.Hi, B.Hi)};
  }
};

template <class T>
void simdPreciseEpsGroup(const PreciseRows &X, const PreciseRow &Y, size_t D,
                         double *Lo, double *Hi) {
  preciseEpsGroup<GroupLanes<T>>(X, Y, D, Lo, Hi);
}

/// The kernel table of the ISA described by \p T.
template <class T> constexpr Kernels simdKernelTable() {
  return {
      .Tag = T::Tag,
      .Lanes = T::L,
      .DotTransposedB = simdDotTransposedB<T>,
      .Dot = simdDot<T>,
      .Sum = simdSum<T>,
      .Axpy = simdAxpy<T>,
      .Axpy4 = simdAxpy4<T>,
      .SubScale = simdSubScale<T>,
      .AbsRow = simdAbsRow<T>,
      .AccAbs = simdAccAbs<T>,
      .AccSq = simdAccSq<T>,
      .AccMaxAbs = simdAccMaxAbs<T>,
      .RowSums = simdRowSums<T>,
      .Axpy4K = simdAxpy4K<T>,
      .CascadeDense = simdCascadeDense<T>,
      .DotPlanesTransposedB = simdDotPlanesTransposedB<T>,
      .RowScale = simdRowScale<T>,
      .PreciseEpsGroup = simdPreciseEpsGroup<T>,
  };
}

} // namespace
} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_TENSOR_SIMDKERNELS_H
