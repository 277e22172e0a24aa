//===- zono/DotProduct.cpp ------------------------------------*- C++ -*-===//

#include "zono/DotProduct.h"

#include "support/Fp.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"
#include "tensor/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <optional>
#include <vector>

using namespace deept;
using namespace deept::zono;
using support::grainForWork;
using support::parallelFor;
using tensor::dualExponent;

namespace {

/// Per-variable q-norms over the symbol axis of a coefficient matrix whose
/// rows are flattened M x D views: returns an M x D matrix of norms.
/// Parallel over variable ranges; per variable the symbol axis accumulates
/// in ascending order, so results do not depend on the thread count.
Matrix perVarSymbolNorms(const Matrix &Coeffs, double Q, size_t M, size_t D) {
  Matrix Out(M, D, 0.0);
  double *O = Out.data();
  size_t NumVars = M * D;
  size_t NumS = Coeffs.rows();
  parallelFor(0, NumVars, support::reductionGrain(NumVars),
              [&](size_t V0, size_t V1) {
    const tensor::Kernels &K = tensor::kernels();
    size_t W = V1 - V0;
    if (support::fpPrecision() == support::FpPrecision::F32) {
      // Single-precision accumulation with the sound upward lift; the
      // lifted values upper-bound the f64 results per variable (see
      // tensor::detail::f32SumUpper).
      std::vector<float> FAcc(W, 0.0f);
      for (size_t S = 0; S < NumS; ++S) {
        const double *Row = Coeffs.rowPtr(S) + V0;
        if (Q == 1.0)
          K.AccAbsF32(Row, FAcc.data(), W);
        else if (Q == 2.0)
          K.AccSqF32(Row, FAcc.data(), W);
        else
          K.AccMaxAbsF32(Row, FAcc.data(), W);
      }
      for (size_t V = V0; V < V1; ++V) {
        if (Q == Matrix::InfNorm)
          O[V] = tensor::detail::f32MaxUpper(FAcc[V - V0]);
        else
          O[V] = tensor::detail::f32SumUpper(FAcc[V - V0], NumS);
      }
      if (Q == 2.0)
        for (size_t V = V0; V < V1; ++V)
          O[V] = std::sqrt(O[V]);
      return;
    }
    for (size_t S = 0; S < NumS; ++S) {
      const double *Row = Coeffs.rowPtr(S) + V0;
      if (Q == 1.0)
        K.AccAbs(Row, O + V0, W);
      else if (Q == 2.0)
        K.AccSq(Row, O + V0, W);
      else
        K.AccMaxAbs(Row, O + V0, W);
    }
    if (Q == 2.0)
      for (size_t V = V0; V < V1; ++V)
        O[V] = std::sqrt(O[V]);
  });
  return Out;
}

/// A one-element block-view list over a dense coefficient matrix (used to
/// feed the phi matrix through the block-aware cascade).
std::vector<EpsBlockView> denseViews(const Matrix &Coeffs) {
  std::vector<EpsBlockView> Views;
  if (Coeffs.rows() > 0) {
    EpsBlockView V;
    V.Kind = EpsBlockKind::Dense;
    V.Start = 0;
    V.Syms = Coeffs.rows();
    V.Dense = &Coeffs;
    Views.push_back(V);
  }
  return Views;
}

/// The Eq. 5 cascade: bounds |(V xi1) . (W xi2)| for all (outer row, inner
/// row) pairs. \p Outer holds the xi1 coefficient blocks of an N x D view;
/// \p InnerNorms is the M x D matrix of per-variable dual norms of the xi2
/// coefficients (the inner dual norm is applied first), and \p QOuter the
/// dual exponent accumulated over Outer's symbols. Returns an N x M matrix
/// U with |quad| <= U.
///
/// Parallel over the outer output rows: each row accumulates its symbol
/// cascade independently, walking the blocks in ascending symbol order
/// with ascending-d dots, so the result is bit-identical at any thread
/// count. Zero and off-row Diag symbols contribute an exact +0.0 cascade
/// term, which is an identity on the nonnegative accumulator, so skipping
/// them preserves the dense kernel's bits.
Matrix fastAbsBound(const std::vector<EpsBlockView> &Outer, size_t OuterSyms,
                    double QOuter, size_t N, const Matrix &InnerNorms,
                    size_t M, size_t D) {
  Matrix Acc(N, M, 0.0);
  parallelFor(0, N, grainForWork(OuterSyms * M * D), [&](size_t I0,
                                                         size_t I1) {
    const tensor::Kernels &KT = tensor::kernels();
    std::vector<double> AbsS(D), TRow(M);
    for (size_t I = I0; I < I1; ++I) {
      double *AccRow = Acc.rowPtr(I);
      auto Accumulate = [&]() {
        // TRow is nonnegative, so Axpy(1.0)/AccSq/AccMaxAbs reproduce the
        // former += / += square / max loops bit-for-bit.
        if (QOuter == 1.0)
          KT.Axpy(1.0, TRow.data(), AccRow, M);
        else if (QOuter == 2.0)
          KT.AccSq(TRow.data(), AccRow, M);
        else
          KT.AccMaxAbs(TRow.data(), AccRow, M);
      };
      for (const EpsBlockView &BV : Outer) {
        switch (BV.Kind) {
        case EpsBlockKind::Zero:
          break;
        case EpsBlockKind::Diag:
          for (size_t E = 0; E < BV.Syms; ++E) {
            const auto &En = BV.Entries[E];
            if (En.second == 0.0 || En.first / D != I)
              continue;
            size_t K0 = En.first % D;
            double AbsC = std::fabs(En.second);
            for (size_t J = 0; J < M; ++J)
              TRow[J] = AbsC * InnerNorms.rowPtr(J)[K0];
            Accumulate();
          }
          break;
        case EpsBlockKind::Dense:
          // One dispatch for the whole block: the fused kernel runs the
          // AbsRow / zero-skip / 1-row dot / accumulate sequence per
          // symbol with the helpers inlined (bit-identical to the unfused
          // calls -- see tensor::Kernels::CascadeDense).
          KT.CascadeDense(BV.Dense->rowPtr(0) + I * D, BV.Syms,
                          BV.Dense->cols(), InnerNorms.data(), M, D, QOuter,
                          AbsS.data(), TRow.data(), AccRow);
          break;
        }
      }
      if (QOuter == 2.0)
        for (size_t J = 0; J < M; ++J)
          AccRow[J] = std::sqrt(AccRow[J]);
    }
  });
  return Acc;
}

/// Lists, for each row of an N x D view, the symbols whose coefficient
/// slice on that row is not identically zero. Fresh (diagonal) symbols
/// touch a single variable, so these lists are short in practice.
/// Parallel over rows; each row's list stays in ascending symbol order.
std::vector<std::vector<size_t>> activeSymbolsPerRow(const Matrix &Coeffs,
                                                     size_t N, size_t D) {
  std::vector<std::vector<size_t>> Active(N);
  size_t NumS = Coeffs.rows();
  parallelFor(0, N, grainForWork(NumS * D), [&](size_t I0, size_t I1) {
    for (size_t I = I0; I < I1; ++I) {
      for (size_t S = 0; S < NumS; ++S) {
        const double *Slice = Coeffs.rowPtr(S) + I * D;
        for (size_t K = 0; K < D; ++K) {
          if (Slice[K] != 0.0) {
            Active[I].push_back(S);
            break;
          }
        }
      }
    }
  });
  return Active;
}

bool allFinite(const Matrix &X) {
  for (size_t I = 0; I < X.size(); ++I)
    if (!std::isfinite(X.flat(I)))
      return false;
  return true;
}

} // namespace

void deept::zono::detail::preciseEpsBound(const Matrix &EA, size_t N,
                                          const Matrix &EB, size_t M,
                                          size_t D, Matrix &Lo, Matrix &Hi) {
  static support::Counter &FlopsEst =
      support::Metrics::global().counter("zono.dot.flops_est");
  constexpr size_t PL = tensor::PreciseGroupLanes;
  Lo = Matrix(N, M, 0.0);
  Hi = Matrix(N, M, 0.0);
  assert(EA.rows() == EB.rows() && "eps spaces must be aligned");
  auto ActiveA = activeSymbolsPerRow(EA, N, D);
  auto ActiveB = activeSymbolsPerRow(EB, M, D);
  double SumA = 0.0, SumB = 0.0;
  for (const auto &L : ActiveA)
    SumA += static_cast<double>(L.size());
  for (const auto &L : ActiveB)
    SumB += static_cast<double>(L.size());
  // One multiply-add per (s, t, k) of every pair's own active lists.
  FlopsEst.add(2.0 * static_cast<double>(D) * SumA * SumB);
  if (SumA == 0.0 || SumB == 0.0)
    return;

  // Lane groups: PL consecutive rows of A against one row J of B, whose
  // packed slices every lane shares. Each lane walks its own row's
  // active list in lockstep with the others; a lane whose list is
  // exhausted sees a zero slice, G = +0, and +0 leaves Hi (>= +0) and Lo
  // (never -0) unchanged, so every lane keeps its own pair's bits. That
  // needs finite coefficients (0 * inf is NaN): otherwise every pair runs
  // alone.
  size_t Width = allFinite(EA) && allFinite(EB) ? PL : 1;
  size_t Blocks = (N + Width - 1) / Width;
  parallelFor(0, Blocks * M, 1, [&](size_t G0, size_t G1) {
    const tensor::Kernels &K = tensor::kernels();
    // Worker-local high-water scratch for B row J's packed slices (at
    // most E * D doubles), streamed once per x step: contiguous, it reads
    // whole cache lines instead of one strided coefficient row per symbol.
    static thread_local std::vector<double> YSlices;
    double GLo[PL], GHi[PL];
    for (size_t G = G0; G < G1; ++G) {
      size_t I0 = G / M * Width, J = G % M;
      tensor::PreciseRows X;
      X.Base = EA.data() + I0 * D;
      X.Stride = EA.cols();
      X.Lanes = std::min(Width, N - I0);
      for (size_t P = 0; P < X.Lanes; ++P) {
        X.LaneSym[P] = ActiveA[I0 + P].data();
        X.LaneNum[P] = ActiveA[I0 + P].size();
      }
      tensor::PreciseRow Y;
      Y.Sym = ActiveB[J].data();
      Y.NumSyms = ActiveB[J].size();
      YSlices.resize(Y.NumSyms * D);
      for (size_t T = 0; T < Y.NumSyms; ++T)
        std::copy_n(EB.rowPtr(Y.Sym[T]) + J * D, D, YSlices.data() + T * D);
      Y.Slices = YSlices.data();
      K.PreciseEpsGroup(X, Y, D, GLo, GHi);
      for (size_t P = 0; P < X.Lanes; ++P) {
        Lo.at(I0 + P, J) = GLo[P];
        Hi.at(I0 + P, J) = GHi[P];
      }
    }
  });
}

namespace {

/// Accumulates the four quadratic interaction blocks of dotRows into
/// (QLo, QHi) according to \p Opts. The Fast cascades consume the eps
/// blocks directly; only the Precise Eq. 6 path densifies (serially, from
/// this non-parallel context).
void quadraticBounds(const Zonotope &A, const Zonotope &B, size_t N,
                     size_t M, size_t D, const DotOptions &Opts, Matrix &QLo,
                     Matrix &QHi) {
  QLo = Matrix(N, M, 0.0);
  QHi = Matrix(N, M, 0.0);
  double P = A.phiP();
  double QP = dualExponent(P);
  bool InfFirst = Opts.Order == DualNormOrder::InfFirst;

  auto AccumulateSym = [&](const Matrix &U) {
    QLo -= U;
    QHi += U;
  };

  bool HavePhi = A.numPhi() > 0;
  // The operands' eps spaces may have different lengths on the Fast path
  // (dotRows no longer pads): every Fast term below bounds one side's own
  // symbols against the other side's per-column norms, so a missing
  // symbol simply contributes nothing.
  bool HaveEps = A.numEps() > 0 || B.numEps() > 0;
  auto APhi = denseViews(A.phiCoeffs());
  auto BPhi = denseViews(B.phiCoeffs());

  if (HavePhi) {
    // phi-phi block; the order flag picks which operand is inner.
    if (InfFirst)
      AccumulateSym(fastAbsBound(APhi, A.numPhi(), QP, N,
                                 perVarSymbolNorms(B.phiCoeffs(), QP, M, D),
                                 M, D));
    else
      AccumulateSym(fastAbsBound(BPhi, B.numPhi(), QP, M,
                                 perVarSymbolNorms(A.phiCoeffs(), QP, N, D),
                                 N, D)
                        .transposed());
  }
  if (HavePhi && HaveEps) {
    // phi-eps and eps-phi mixed blocks. "InfFirst" makes the eps side the
    // inner one (its dual norm is applied first).
    if (InfFirst) {
      AccumulateSym(fastAbsBound(APhi, A.numPhi(), QP, N,
                                 B.epsColumnDualNorms(1.0).reshaped(M, D),
                                 M, D));
      AccumulateSym(fastAbsBound(BPhi, B.numPhi(), QP, M,
                                 A.epsColumnDualNorms(1.0).reshaped(N, D),
                                 N, D)
                        .transposed());
    } else {
      AccumulateSym(fastAbsBound(B.epsBlockViews(), B.numEps(), 1.0, M,
                                 perVarSymbolNorms(A.phiCoeffs(), QP, N, D),
                                 N, D)
                        .transposed());
      AccumulateSym(fastAbsBound(A.epsBlockViews(), A.numEps(), 1.0, N,
                                 perVarSymbolNorms(B.phiCoeffs(), QP, M, D),
                                 M, D));
    }
  }
  if (HaveEps) {
    if (Opts.Method == DotMethod::Precise) {
      Matrix Lo, Hi;
      detail::preciseEpsBound(A.epsCoeffs(), N, B.epsCoeffs(), M, D, Lo, Hi);
      QLo += Lo;
      QHi += Hi;
    } else if (InfFirst) {
      AccumulateSym(fastAbsBound(A.epsBlockViews(), A.numEps(), 1.0, N,
                                 B.epsColumnDualNorms(1.0).reshaped(M, D),
                                 M, D));
    } else {
      AccumulateSym(fastAbsBound(B.epsBlockViews(), B.numEps(), 1.0, M,
                                 A.epsColumnDualNorms(1.0).reshaped(N, D),
                                 N, D)
                        .transposed());
    }
  }
}

} // namespace

Zonotope deept::zono::dotRows(const Zonotope &AIn, const Zonotope &BIn,
                              const DotOptions &Opts) {
  DEEPT_TRACE_SPAN("zono.dot_rows");
  static support::Counter &FastCalls =
      support::Metrics::global().counter("zono.dot.fast.calls");
  static support::Counter &PreciseCalls =
      support::Metrics::global().counter("zono.dot.precise.calls");
  static support::Counter &FlopsEst =
      support::Metrics::global().counter("zono.dot.flops_est");
  (Opts.Method == DotMethod::Precise ? PreciseCalls : FastCalls).add(1);

  assert(AIn.cols() == BIn.cols() && "dotRows dimension mismatch");
  // The body only reads the operands, so align by copying and padding
  // only the side whose symbol space is actually narrower -- and only for
  // phi mismatches (rare: phi symbols are minted once at the input
  // embedding, so both operands almost always agree). An eps-count
  // mismatch is absorbed for free by flattening the shorter side's block
  // views with trailing Zero symbols, which replaces what used to be a
  // full coefficient-matrix copy per call on the hot attention path
  // (Probs . V^T, where softmax minted fresh symbols only on one side).
  // The Precise method still pads: the Eq. 6 eps-eps bound pairs symbol
  // s against symbol t by index, so it wants genuinely aligned planes.
  std::optional<Zonotope> ACopy, BCopy;
  bool NeedEpsAlign = Opts.Method == DotMethod::Precise;
  // A side also adopts B's norm when both operands are phi-free but
  // disagree on the (then unused) norm tag, matching alignSpaces.
  if (AIn.numPhi() < BIn.numPhi() ||
      (NeedEpsAlign && AIn.numEps() < BIn.numEps()) ||
      (AIn.numPhi() == 0 && AIn.phiP() != BIn.phiP())) {
    ACopy.emplace(AIn);
    ACopy->padToMatch(BIn);
  }
  if (BIn.numPhi() < AIn.numPhi() ||
      (NeedEpsAlign && BIn.numEps() < AIn.numEps()) ||
      (BIn.numPhi() == 0 && AIn.numPhi() > 0 && BIn.phiP() != AIn.phiP())) {
    BCopy.emplace(BIn);
    BCopy->padToMatch(AIn);
  }
  const Zonotope &A = ACopy ? *ACopy : AIn;
  const Zonotope &B = BCopy ? *BCopy : BIn;
  assert(A.numPhi() == B.numPhi() && "operand phi spaces misaligned");
  assert((!NeedEpsAlign || A.numEps() == B.numEps()) &&
         "operand eps spaces misaligned");
  size_t N = A.rows(), M = B.rows(), D = A.cols();

  const Matrix &CA = A.center();
  const Matrix &CB = B.center();

  // Exact affine part.
  Matrix Center = tensor::matmulTransposedB(CA, CB);

  size_t NumVarsA = A.numVars(), NumVarsB = B.numVars();
  // The per-symbol affine coefficients are independent rows of the output
  // coefficient matrices, so the symbol loop parallelises with disjoint
  // writes; inside a worker chunk each Coef = CA * BS^T + AS * CB^T half
  // runs as ONE whole-plane fused call that packs the shared center panel
  // (plus its hoisted zero-row flags on the A side) into cache-resident
  // scratch and streams every plane through it -- bit-identical to the
  // former per-symbol kernel calls (see Kernels::DotPlanesTransposedB).
  size_t SymGrain = grainForWork(4 * N * M * D);
  // Every row is fully covered by the non-accumulating B-side half below
  // (which zero-fills skipped zero rows), so no fill is needed.
  Matrix PhiOut = Matrix::uninit(A.numPhi(), N * M);
  parallelFor(0, A.numPhi(), SymGrain, [&](size_t S0, size_t S1) {
    const tensor::Kernels &K = tensor::kernels();
    // Worker-local scratch kept at high-water capacity: dotRows runs
    // thousands of times per certification, so a fresh allocation per
    // chunk is pure malloc traffic. The kernel overwrites every slot it
    // reads, so stale contents are harmless.
    static thread_local std::vector<double> Pack;
    Pack.resize(tensor::dotPlanesPackDoubles(N, M, D));
    K.DotPlanesTransposedB(CA.data(), 0, N, B.phiCoeffs().rowPtr(S0),
                           NumVarsB, M, D, S1 - S0, PhiOut.rowPtr(S0), N * M,
                           /*Accumulate=*/false, Pack.data());
    K.DotPlanesTransposedB(A.phiCoeffs().rowPtr(S0), NumVarsA, N, CB.data(),
                           0, M, D, S1 - S0, PhiOut.rowPtr(S0), N * M,
                           /*Accumulate=*/true, Pack.data());
  });

  // Eps planes, block-wise: a symbol carried by one Diag entry on either
  // side contributes one scaled center row/column (O(N + M)) instead of
  // two N x D x M GEMMs, and all-zero symbols pass through as Zero blocks.
  // Runs of non-trivial symbols pack into Dense blocks filled in parallel
  // (disjoint rows; B-side contribution first, exactly like the dense
  // Coef = CA.BS^T + AS.CB^T kernel).
  size_t E = std::max(A.numEps(), B.numEps());
  auto RefsA = flattenEpsViews(A.epsBlockViews(), E);
  auto RefsB = flattenEpsViews(B.epsBlockViews(), E);
  // FLOP estimate of the affine part, block-aware on the eps side: a
  // Dense half is a full N x D x M GEMM, a Diag half scales one center
  // row/column (N products, or M multiply-adds on the A side), and Zero
  // halves cost nothing -- so sparse workloads no longer read as two full
  // GEMMs per eps symbol in --stats-json.
  {
    double Dense = 2.0 * static_cast<double>(N * M * D);
    double EpsFlops = 0.0;
    for (size_t Sy = 0; Sy < E; ++Sy) {
      if (RefsB[Sy].Kind == EpsBlockKind::Dense)
        EpsFlops += Dense;
      else if (RefsB[Sy].Kind == EpsBlockKind::Diag)
        EpsFlops += static_cast<double>(N);
      if (RefsA[Sy].Kind == EpsBlockKind::Dense)
        EpsFlops += Dense;
      else if (RefsA[Sy].Kind == EpsBlockKind::Diag)
        EpsFlops += static_cast<double>(2 * M);
    }
    FlopsEst.add(Dense * (1.0 + 2.0 * static_cast<double>(A.numPhi())) +
                 EpsFlops);
  }
  auto BothZero = [&](size_t S) {
    return RefsA[S].Kind == EpsBlockKind::Zero &&
           RefsB[S].Kind == EpsBlockKind::Zero;
  };
  std::deque<EpsBlock> EpsBlocks;
  size_t S = 0;
  while (S < E) {
    size_t S1 = S + 1;
    if (BothZero(S)) {
      while (S1 < E && BothZero(S1))
        ++S1;
      EpsBlock Blk;
      Blk.Kind = EpsBlockKind::Zero;
      Blk.ZeroSyms = S1 - S;
      EpsBlocks.push_back(std::move(Blk));
      S = S1;
      continue;
    }
    size_t DenseSyms =
        (RefsA[S].Kind == EpsBlockKind::Dense ||
         RefsB[S].Kind == EpsBlockKind::Dense)
            ? 1
            : 0;
    while (S1 < E && !BothZero(S1)) {
      if (RefsA[S1].Kind == EpsBlockKind::Dense ||
          RefsB[S1].Kind == EpsBlockKind::Dense)
        ++DenseSyms;
      ++S1;
    }
    size_t Len = S1 - S;
    // Rows whose B-side is Dense are fully written by the non-accumulating
    // kernel call (zero rows of CA zero-fill); only the sparse Diag cases
    // need their row cleared first, which the loop below does per row.
    Matrix Run = Matrix::uninit(Len, N * M);
    size_t RunWork =
        (DenseSyms * 4 * N * M * D + (Len - DenseSyms) * (N + M + 8)) / Len +
        1;
    parallelFor(0, Len, grainForWork(RunWork), [&](size_t R0, size_t R1) {
      const tensor::Kernels &K = tensor::kernels();
      // Worker-local scratch, reused across chunks (see the phi loop).
      static thread_local std::vector<double> Pack;
      Pack.resize(tensor::dotPlanesPackDoubles(N, M, D));
      // Two passes over the chunk, one per half of Coef = CA.BS^T +
      // AS.CB^T. Per row the operation order is unchanged (B-side write,
      // then A-side accumulate) and rows are disjoint, so the bits match
      // the former single interleaved pass. Within each pass, stretches
      // of consecutive Dense symbols whose coefficient rows are
      // contiguous in one block batch into a single whole-plane fused
      // call; Diag and Zero symbols keep the O(N + M) scatter paths.
      size_t R = R0;
      while (R < R1) {
        const EpsSymRef &RB = RefsB[S + R];
        if (RB.Kind == EpsBlockKind::Dense) {
          size_t E1 = R + 1;
          while (E1 < R1 && RefsB[S + E1].Kind == EpsBlockKind::Dense &&
                 RefsB[S + E1].Row == RB.Row + (E1 - R) * NumVarsB)
            ++E1;
          K.DotPlanesTransposedB(CA.data(), 0, N, RB.Row, NumVarsB, M, D,
                                 E1 - R, Run.rowPtr(R), N * M,
                                 /*Accumulate=*/false, Pack.data());
          R = E1;
          continue;
        }
        double *OutRow = Run.rowPtr(R);
        if (RB.Kind == EpsBlockKind::Diag) {
          std::fill(OutRow, OutRow + N * M, 0.0);
          size_t RowB = RB.Entry.first / D, ColB = RB.Entry.first % D;
          for (size_t I = 0; I < N; ++I)
            OutRow[I * M + RowB] = CA.at(I, ColB) * RB.Entry.second;
        } else if (RefsA[S + R].Kind == EpsBlockKind::Diag) {
          std::fill(OutRow, OutRow + N * M, 0.0);
        }
        ++R;
      }
      R = R0;
      while (R < R1) {
        const EpsSymRef &RA = RefsA[S + R];
        if (RA.Kind == EpsBlockKind::Dense) {
          bool Acc = RefsB[S + R].Kind != EpsBlockKind::Zero;
          size_t E1 = R + 1;
          while (E1 < R1 && RefsA[S + E1].Kind == EpsBlockKind::Dense &&
                 RefsA[S + E1].Row == RA.Row + (E1 - R) * NumVarsA &&
                 (RefsB[S + E1].Kind != EpsBlockKind::Zero) == Acc)
            ++E1;
          K.DotPlanesTransposedB(RA.Row, NumVarsA, N, CB.data(), 0, M, D,
                                 E1 - R, Run.rowPtr(R), N * M, Acc,
                                 Pack.data());
          R = E1;
          continue;
        }
        if (RA.Kind == EpsBlockKind::Diag) {
          double *OutRow = Run.rowPtr(R);
          size_t RowA = RA.Entry.first / D, ColA = RA.Entry.first % D;
          double *O = OutRow + RowA * M;
          for (size_t J = 0; J < M; ++J)
            O[J] += RA.Entry.second * CB.at(J, ColA);
        }
        ++R;
      }
    });
    EpsBlock Blk;
    Blk.Kind = EpsBlockKind::Dense;
    Blk.D = std::move(Run);
    EpsBlocks.push_back(std::move(Blk));
    S = S1;
  }

  // Install the affine coefficients, then absorb the quadratic remainder
  // into fresh symbols.
  Zonotope Out = Zonotope::constant(Center, A.phiP());
  Out.installCoeffs(std::move(PhiOut), std::move(EpsBlocks));

  Matrix QLo, QHi;
  {
    // The Fast/Precise split lives here; a separate span makes the Eq. 5
    // vs Eq. 6 cost visible under the dot_rows parent.
    DEEPT_TRACE_SPAN(Opts.Method == DotMethod::Precise
                         ? "zono.dot.quadratic_precise"
                         : "zono.dot.quadratic_fast");
    quadraticBounds(A, B, N, M, D, Opts, QLo, QHi);
  }
  std::vector<std::pair<size_t, double>> Fresh;
  Matrix Shift(N, M, 0.0);
  for (size_t V = 0; V < N * M; ++V) {
    double Mid = 0.5 * (QHi.flat(V) + QLo.flat(V));
    double Rad = 0.5 * (QHi.flat(V) - QLo.flat(V));
    Shift.flat(V) = Mid;
    if (Rad > 0.0)
      Fresh.emplace_back(V, Rad);
  }
  Out.shiftCenterInPlace(Shift);
  Out.appendFreshEps(Fresh);
  return Out;
}

Zonotope deept::zono::mulElementwise(const Zonotope &AIn, const Zonotope &BIn,
                                     const DotOptions &Opts) {
  DEEPT_TRACE_SPAN("zono.mul_elementwise");
  static support::Counter &Calls =
      support::Metrics::global().counter("zono.mul.calls");
  Calls.add(1);
  assert(AIn.rows() == BIn.rows() && AIn.cols() == BIn.cols() &&
         "mulElementwise shape mismatch");
  // Same one-sided copy-elision as dotRows: pad only the narrower side,
  // and only align the eps spaces when the Precise remainder needs its
  // index-paired Eq. 6 scan. The Fast remainder and the block-wise plane
  // fill treat symbols past a side's own count as Zero blocks, so unequal
  // eps counts cost nothing.
  bool NeedEpsAlign = Opts.Method == DotMethod::Precise;
  std::optional<Zonotope> ACopy, BCopy;
  if (AIn.numPhi() < BIn.numPhi() ||
      (NeedEpsAlign && AIn.numEps() < BIn.numEps()) ||
      (AIn.numPhi() == 0 && AIn.phiP() != BIn.phiP())) {
    ACopy.emplace(AIn);
    ACopy->padToMatch(BIn);
  }
  if (BIn.numPhi() < AIn.numPhi() ||
      (NeedEpsAlign && BIn.numEps() < AIn.numEps()) ||
      (BIn.numPhi() == 0 && AIn.numPhi() > 0 && BIn.phiP() != AIn.phiP())) {
    BCopy.emplace(BIn);
    BCopy->padToMatch(AIn);
  }
  const Zonotope &A = ACopy ? *ACopy : AIn;
  const Zonotope &B = BCopy ? *BCopy : BIn;
  size_t NumVars = A.numVars();

  const Matrix &CA = A.center();
  const Matrix &CB = B.center();
  Matrix Center = hadamard(CA, CB);
  Zonotope Out = Zonotope::constant(Center.reshaped(A.rows(), A.cols()),
                                    A.phiP());

  size_t SymGrain = grainForWork(2 * NumVars);
  // Rows fully written by the per-variable loop below.
  Matrix PhiOut = Matrix::uninit(A.numPhi(), NumVars);
  parallelFor(0, A.numPhi(), SymGrain, [&](size_t S0, size_t S1) {
    for (size_t S = S0; S < S1; ++S) {
      const double *AS = A.phiCoeffs().rowPtr(S);
      const double *BS = B.phiCoeffs().rowPtr(S);
      double *O = PhiOut.rowPtr(S);
      for (size_t V = 0; V < NumVars; ++V)
        O[V] = CA.flat(V) * BS[V] + CB.flat(V) * AS[V];
    }
  });

  // Eps planes, block-wise. The output plane of symbol S is
  //   CA * BS + CB * AS  (per variable);
  // a symbol that is Diag on one side and Zero on the other stays Diag
  // (one product), two Diag entries on the same variable stay Diag (two
  // products), and everything else packs into Dense runs filled in
  // parallel with the per-variable kernel above.
  size_t E = std::max(A.numEps(), B.numEps());
  auto RefsA = flattenEpsViews(A.epsBlockViews(), E);
  auto RefsB = flattenEpsViews(B.epsBlockViews(), E);
  enum Cls : unsigned char { ClsZero, ClsDiag, ClsDense };
  auto Classify = [&](size_t S) {
    const EpsSymRef &RA = RefsA[S];
    const EpsSymRef &RB = RefsB[S];
    if (RA.Kind == EpsBlockKind::Dense || RB.Kind == EpsBlockKind::Dense)
      return ClsDense;
    if (RA.Kind == EpsBlockKind::Zero && RB.Kind == EpsBlockKind::Zero)
      return ClsZero;
    if (RA.Kind == EpsBlockKind::Diag && RB.Kind == EpsBlockKind::Diag &&
        RA.Entry.first != RB.Entry.first)
      return ClsDense;
    return ClsDiag;
  };
  std::deque<EpsBlock> EpsBlocks;
  auto PushZero = [&](size_t Syms) {
    if (!EpsBlocks.empty() && EpsBlocks.back().Kind == EpsBlockKind::Zero) {
      EpsBlocks.back().ZeroSyms += Syms;
    } else {
      EpsBlock Blk;
      Blk.Kind = EpsBlockKind::Zero;
      Blk.ZeroSyms = Syms;
      EpsBlocks.push_back(std::move(Blk));
    }
  };
  auto PushDiag = [&](size_t Var, double Coef) {
    if (EpsBlocks.empty() || EpsBlocks.back().Kind != EpsBlockKind::Diag) {
      EpsBlock Blk;
      Blk.Kind = EpsBlockKind::Diag;
      EpsBlocks.push_back(std::move(Blk));
    }
    EpsBlocks.back().Entries.emplace_back(Var, Coef);
  };
  size_t S = 0;
  while (S < E) {
    Cls C = Classify(S);
    size_t S1 = S + 1;
    while (S1 < E && Classify(S1) == C)
      ++S1;
    size_t Len = S1 - S;
    switch (C) {
    case ClsZero:
      PushZero(Len);
      break;
    case ClsDiag:
      for (size_t T = S; T < S1; ++T) {
        const EpsSymRef &RA = RefsA[T];
        const EpsSymRef &RB = RefsB[T];
        if (RA.Kind == EpsBlockKind::Zero) {
          PushDiag(RB.Entry.first,
                   CA.flat(RB.Entry.first) * RB.Entry.second);
        } else if (RB.Kind == EpsBlockKind::Zero) {
          PushDiag(RA.Entry.first,
                   CB.flat(RA.Entry.first) * RA.Entry.second);
        } else {
          size_t V = RA.Entry.first;
          PushDiag(V, CA.flat(V) * RB.Entry.second +
                          CB.flat(V) * RA.Entry.second);
        }
      }
      break;
    case ClsDense: {
      Matrix Run(Len, NumVars, 0.0);
      parallelFor(0, Len, SymGrain, [&](size_t R0, size_t R1) {
        for (size_t R = R0; R < R1; ++R) {
          const EpsSymRef &RA = RefsA[S + R];
          const EpsSymRef &RB = RefsB[S + R];
          double *O = Run.rowPtr(R);
          if (RA.Kind == EpsBlockKind::Dense &&
              RB.Kind == EpsBlockKind::Dense) {
            for (size_t V = 0; V < NumVars; ++V)
              O[V] = CA.flat(V) * RB.Row[V] + CB.flat(V) * RA.Row[V];
          } else if (RB.Kind == EpsBlockKind::Dense) {
            for (size_t V = 0; V < NumVars; ++V)
              O[V] = CA.flat(V) * RB.Row[V];
            if (RA.Kind == EpsBlockKind::Diag)
              O[RA.Entry.first] +=
                  CB.flat(RA.Entry.first) * RA.Entry.second;
          } else if (RA.Kind == EpsBlockKind::Dense) {
            for (size_t V = 0; V < NumVars; ++V)
              O[V] = CB.flat(V) * RA.Row[V];
            if (RB.Kind == EpsBlockKind::Diag)
              O[RB.Entry.first] +=
                  CA.flat(RB.Entry.first) * RB.Entry.second;
          } else {
            // Two Diag entries on different variables.
            O[RB.Entry.first] = CA.flat(RB.Entry.first) * RB.Entry.second;
            O[RA.Entry.first] += CB.flat(RA.Entry.first) * RA.Entry.second;
          }
        }
      });
      EpsBlock Blk;
      Blk.Kind = EpsBlockKind::Dense;
      Blk.D = std::move(Run);
      EpsBlocks.push_back(std::move(Blk));
      break;
    }
    }
    S = S1;
  }
  Out.installCoeffs(std::move(PhiOut), std::move(EpsBlocks));

  // Quadratic remainder per variable: the D = 1 specialisation of the
  // dot-product bounds, where Eq. 5 factorises into a product of column
  // dual norms. The norms are precomputed block-wise (ascending symbol
  // order per variable, bit-identical to the per-variable scan) so the
  // Fast path never touches a dense eps matrix; the Precise Eq. 6 scan is
  // the sanctioned densification site, hoisted before the parallel loop.
  double P = A.phiP();
  double QP = dualExponent(P);
  Matrix PhiNA = perVarSymbolNorms(A.phiCoeffs(), QP, A.rows(), A.cols());
  Matrix PhiNB = perVarSymbolNorms(B.phiCoeffs(), QP, A.rows(), A.cols());
  Matrix EpsNA = A.epsColumnDualNorms(1.0);
  Matrix EpsNB = B.epsColumnDualNorms(1.0);
  const Matrix *EA = nullptr, *EB = nullptr;
  if (Opts.Method == DotMethod::Precise && A.numEps() > 0) {
    EA = &A.epsCoeffs();
    EB = &B.epsCoeffs();
  }

  // Per-variable pass, parallel over variable chunks. Each chunk collects
  // its fresh-symbol candidates separately; merging the chunk vectors in
  // ascending chunk order reproduces the serial ascending-V order exactly.
  Matrix Shift(A.rows(), A.cols(), 0.0);
  size_t VarGrain = grainForWork(4 * (A.numPhi() + A.numEps()) + 8);
  size_t NumChunks = NumVars == 0 ? 0 : (NumVars + VarGrain - 1) / VarGrain;
  std::vector<std::vector<std::pair<size_t, double>>> ChunkFresh(NumChunks);
  parallelFor(0, NumVars, VarGrain, [&](size_t V0, size_t V1) {
    auto &Fresh = ChunkFresh[V0 / VarGrain];
    for (size_t V = V0; V < V1; ++V) {
      double Lo = 0.0, Hi = 0.0;
      double PhiA = PhiNA.flat(V);
      double PhiB = PhiNB.flat(V);
      double EpsA1 = EpsNA.flat(V);
      double EpsB1 = EpsNB.flat(V);
      double Sym = PhiA * PhiB + PhiA * EpsB1 + EpsA1 * PhiB;
      if (EA) {
        for (size_t T = 0; T < EA->rows(); ++T) {
          double AS = EA->at(T, V);
          if (AS == 0.0)
            continue;
          for (size_t U = 0; U < EB->rows(); ++U) {
            double G = AS * EB->at(U, V);
            if (G == 0.0)
              continue;
            if (T == U) {
              if (G > 0.0)
                Hi += G;
              else
                Lo += G;
            } else {
              Hi += std::fabs(G);
              Lo -= std::fabs(G);
            }
          }
        }
      } else {
        Sym += EpsA1 * EpsB1;
      }
      Lo -= Sym;
      Hi += Sym;
      double Mid = 0.5 * (Hi + Lo);
      double Rad = 0.5 * (Hi - Lo);
      Shift.flat(V) = Mid;
      if (Rad > 0.0)
        Fresh.emplace_back(V, Rad);
    }
  });
  std::vector<std::pair<size_t, double>> Fresh;
  for (auto &C : ChunkFresh)
    Fresh.insert(Fresh.end(), C.begin(), C.end());
  Out.shiftCenterInPlace(Shift);
  Out.appendFreshEps(Fresh);
  return Out;
}
