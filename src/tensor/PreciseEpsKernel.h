//===- tensor/PreciseEpsKernel.h - Eq. 6 lane-group kernel body -*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The body of Kernels::PreciseEpsGroup, written once against a small
/// vector-traits interface and instantiated by each kernel table with its
/// own vector type: eight scalar accumulators (tensor/Kernels.cpp), two
/// AVX2 vectors or one AVX-512 vector (detail::GroupLanes in
/// tensor/SimdKernels.h), so one vector always holds the
/// PreciseGroupLanes output pairs of a lane group.
///
/// The traits type VT provides
///   V                          the 8-lane value type
///   DotLanes                   the table's Dot lane count L (1, 4 or 8)
///   zero() load(p) set1(x) store(p, v) add sub abs
///   fmadd(a, b, c)             fused a * b + c (only when DotLanes > 1)
///   tail(a, b, c)              the serial tail step of Dot: fused for the
///                              SIMD tables, c + a * b for the scalar one
///   positiveLanes(g)           bit p set when lane p of g is > 0
///   blend(bits, a, b)          lane p from a when bit p is set, else b
///
/// Only the kernel translation units include this header, and everything
/// in it has internal linkage: the instantiations are compiled with
/// different -m flags and must never be merged by the linker.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_TENSOR_PRECISEEPSKERNEL_H
#define DEEPT_TENSOR_PRECISEEPSKERNEL_H

#include "tensor/Kernels.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace deept {
namespace tensor {
namespace detail {
namespace {

constexpr size_t PL = PreciseGroupLanes;

// The per-step helpers below must inline into the symbol loops: an
// out-of-line call returning a two-vector (AVX2) or array (scalar) lane
// value goes through memory and costs more than the step itself.
#define DEEPT_LANE_INLINE __attribute__((always_inline))

/// Per-lane replay of the table's Dot: element k feeds accumulator k % L
/// by fma, the accumulators reduce pairwise (i += i + W/2, halving W), and
/// the tail steps serially onto the total -- the order detail::dotLanes
/// documents. DC is D when known at compile time (the accumulators and
/// the outer slice then live in registers), 0 otherwise.
template <class VT, size_t DC, class XAt, class YAt>
DEEPT_LANE_INLINE inline typename VT::V dotReplay(XAt X, YAt Y, size_t DRun) {
  using V = typename VT::V;
  constexpr size_t L = VT::DotLanes;
  static_assert(L == 1 || L == 4 || L == 8, "Dot lane counts 1, 4 or 8");
  const size_t D = DC ? DC : DRun;
  const size_t NV = L > 1 ? D - D % L : 0;
  V G = VT::zero();
  if constexpr (L > 1) {
    if (NV) {
      V Acc[L];
#pragma GCC unroll 8
      for (size_t I = 0; I < L; ++I)
        Acc[I] = VT::zero();
#pragma GCC unroll 16
      for (size_t K = 0; K < NV; ++K)
        Acc[K % L] = VT::fmadd(X(K), Y(K), Acc[K % L]);
      // The halving steps spelled out, so the accumulators stay in
      // registers.
      if constexpr (L == 8) {
        Acc[0] = VT::add(Acc[0], Acc[4]);
        Acc[1] = VT::add(Acc[1], Acc[5]);
        Acc[2] = VT::add(Acc[2], Acc[6]);
        Acc[3] = VT::add(Acc[3], Acc[7]);
      }
      G = VT::add(VT::add(Acc[0], Acc[2]), VT::add(Acc[1], Acc[3]));
    }
  }
#pragma GCC unroll 16
  for (size_t K = NV; K < D; ++K)
    G = VT::tail(X(K), Y(K), G);
  return G;
}

template <class VT, size_t DC>
void preciseEpsGroupImpl(const PreciseRows &X, const PreciseRow &Y,
                         size_t DRun, double *Lo, double *Hi) {
  using V = typename VT::V;
  const size_t D = DC ? DC : DRun;
  const size_t NumY = Y.NumSyms;
  size_t Steps = 0;
  for (size_t P = 0; P < X.Lanes; ++P)
    Steps = std::max(Steps, X.LaneNum[P]);
  V H = VT::zero(), Lw = VT::zero();
  // Each step transposes the lanes' current x slices into a [k][lane]
  // buffer. With D known the buffer, and the vectors loaded from it for
  // the whole inner loop, stay on the stack and in registers; otherwise
  // it is worker-local high-water scratch of D * PL doubles, so a call
  // allocates nothing in steady state.
  double FixedBuf[(DC ? DC : 1) * PL] = {};
  double *XBuf = FixedBuf;
  if constexpr (DC == 0) {
    static thread_local std::vector<double> RunBuf;
    if (RunBuf.size() < D * PL)
      RunBuf.resize(D * PL);
    XBuf = RunBuf.data();
  }
  size_t TP[PL] = {}; // per lane: first y position with id >= its x id
  for (size_t I = 0; I < Steps; ++I) {
    // Lanes whose diagonal t == s falls on y position DiagT[d].
    size_t DiagT[PL] = {};
    unsigned DiagBits[PL] = {}, NumDiag = 0;
    for (size_t P = 0; P < PL; ++P) {
      bool Live = P < X.Lanes && I < X.LaneNum[P];
      const double *Src =
          Live ? X.Base + X.LaneSym[P][I] * X.Stride + P * D : nullptr;
      for (size_t K = 0; K < D; ++K)
        XBuf[K * PL + P] = Live ? Src[K] : 0.0;
      if (!Live)
        continue;
      size_t S = X.LaneSym[P][I];
      while (TP[P] < NumY && Y.Sym[TP[P]] < S)
        ++TP[P];
      if (TP[P] == NumY || Y.Sym[TP[P]] != S)
        continue;
      // Insert into the ascending diagonal list, merging equal positions.
      size_t J = NumDiag;
      while (J > 0 && DiagT[J - 1] > TP[P])
        --J;
      if (J > 0 && DiagT[J - 1] == TP[P]) {
        DiagBits[J - 1] |= 1u << P;
        continue;
      }
      for (size_t Q = NumDiag; Q > J; --Q) {
        DiagT[Q] = DiagT[Q - 1];
        DiagBits[Q] = DiagBits[Q - 1];
      }
      DiagT[J] = TP[P];
      DiagBits[J] = 1u << P;
      ++NumDiag;
    }
    V XV[DC ? DC : 1];
    if constexpr (DC != 0) {
#pragma GCC unroll 16
      for (size_t K = 0; K < DC; ++K)
        XV[K] = VT::load(XBuf + K * PL);
    }
    auto XAt = [&](size_t K) DEEPT_LANE_INLINE {
      if constexpr (DC != 0)
        return XV[K];
      else
        return VT::load(XBuf + K * PL);
    };
    auto Dot = [&](size_t T) DEEPT_LANE_INLINE {
      const double *YSrc = Y.Slices + T * D;
      return dotReplay<VT, DC>(
          XAt, [&](size_t K) DEEPT_LANE_INLINE {
            return VT::set1(YSrc[K]);
          },
          D);
    };
    // eps_s eps_t in [-1, 1]: Hi += |G|, Lo -= |G|.
    auto Fold = [&](V G) DEEPT_LANE_INLINE {
      V A = VT::abs(G);
      H = VT::add(H, A);
      Lw = VT::sub(Lw, A);
    };
    // Runs of off-diagonal steps between the diagonal positions; one loop
    // body for every run keeps a single inlined copy of the step. Two
    // steps per iteration overlap their dot chains; the folds keep their
    // order.
    size_t T = 0;
    for (size_t R = 0; R <= NumDiag; ++R) {
      size_t TEnd = R < NumDiag ? DiagT[R] : NumY;
      for (; T + 2 <= TEnd; T += 2) {
        V G0 = Dot(T), G1 = Dot(T + 1);
        Fold(G0);
        Fold(G1);
      }
      if (T < TEnd)
        Fold(Dot(T++));
      if (R == NumDiag)
        break;
      // Diagonal lanes fold eps_s^2 in [0, 1] (G > 0 ? Hi += G :
      // Lo += G); the others fold this step as off-diagonal.
      V G = Dot(T++), A = VT::abs(G);
      unsigned Pos = VT::positiveLanes(G);
      V HDiag = VT::blend(Pos, VT::add(H, G), H);
      V LDiag = VT::blend(Pos, Lw, VT::add(Lw, G));
      H = VT::blend(DiagBits[R], HDiag, VT::add(H, A));
      Lw = VT::blend(DiagBits[R], LDiag, VT::sub(Lw, A));
    }
  }
  VT::store(Lo, Lw);
  VT::store(Hi, H);
}

/// Picks the instantiation: a compile-time D for the slice widths the
/// Combined batch benchmark's attention produces (head width 6, sentence
/// lengths 4..10), the runtime loop otherwise. Per call the compile-time
/// D measured 1.5-6x faster than the runtime loop on every table
/// (DESIGN.md).
template <class VT>
void preciseEpsGroup(const PreciseRows &X, const PreciseRow &Y, size_t D,
                     double *Lo, double *Hi) {
#define DEEPT_PRECISE_D(N)                                                     \
  case N:                                                                      \
    return preciseEpsGroupImpl<VT, N>(X, Y, D, Lo, Hi);
  switch (D) {
    DEEPT_PRECISE_D(4)
    DEEPT_PRECISE_D(5)
    DEEPT_PRECISE_D(6)
    DEEPT_PRECISE_D(7)
    DEEPT_PRECISE_D(8)
    DEEPT_PRECISE_D(9)
    DEEPT_PRECISE_D(10)
  default:
    break;
  }
#undef DEEPT_PRECISE_D
  preciseEpsGroupImpl<VT, 0>(X, Y, D, Lo, Hi);
}

#undef DEEPT_LANE_INLINE

} // namespace
} // namespace detail
} // namespace tensor
} // namespace deept

#endif // DEEPT_TENSOR_PRECISEEPSKERNEL_H
