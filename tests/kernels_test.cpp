//===- tests/kernels_test.cpp - SIMD kernel equivalence ---------*- C++ -*-===//
//
// Tests of the SIMD execution layer: each available kernel table must be
// 0-ULP identical to the lane-ordered scalar emulation of its reductions;
// the elementwise kernels must be bit-identical across every ISA; and
// radii must be thread-count invariant within each ISA.
//
//===----------------------------------------------------------------------===//

#include "data/SyntheticCorpus.h"
#include "nn/Serialize.h"
#include "nn/Transformer.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "tensor/Kernels.h"
#include "tensor/Matrix.h"
#include "verify/DeepT.h"
#include "zono/DotProduct.h"
#include "zono/Elementwise.h"
#include "zono/Zonotope.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

using namespace deept;
using support::ThreadPool;
using tensor::Isa;
using tensor::Kernels;
using tensor::Matrix;

namespace {

class ScopedThreads {
public:
  explicit ScopedThreads(size_t N) : Prev(ThreadPool::global().threadCount()) {
    ThreadPool::global().setThreadCount(N);
  }
  ~ScopedThreads() { ThreadPool::global().setThreadCount(Prev); }

private:
  size_t Prev;
};

class ScopedIsa {
public:
  explicit ScopedIsa(Isa I) : Prev(tensor::currentIsa()) {
    EXPECT_TRUE(tensor::setIsa(I));
  }
  ~ScopedIsa() { tensor::setIsa(Prev); }

private:
  Isa Prev;
};

std::vector<Isa> availableIsas() {
  std::vector<Isa> Out;
  for (Isa I : {Isa::Scalar, Isa::Avx2, Isa::Avx512})
    if (tensor::isaAvailable(I))
      Out.push_back(I);
  return Out;
}

std::vector<double> randomVec(size_t N, support::Rng &Rng, double ZeroProb = 0.0) {
  std::vector<double> V(N);
  for (double &X : V) {
    X = Rng.gaussian() * std::exp(Rng.gaussian());
    if (ZeroProb > 0.0 && Rng.uniform() < ZeroProb)
      X = 0.0;
  }
  return V;
}

// Sizes straddling every remainder path of the 4- and 8-lane kernels.
const size_t Sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257};

TEST(KernelDispatch, ParseIsaStrict) {
  Isa I = Isa::Scalar;
  std::string Err;
  EXPECT_TRUE(tensor::parseIsa("scalar", I, &Err));
  EXPECT_EQ(I, Isa::Scalar);
  EXPECT_TRUE(tensor::parseIsa("avx2", I, &Err));
  EXPECT_EQ(I, Isa::Avx2);
  EXPECT_TRUE(tensor::parseIsa("avx512", I, &Err));
  EXPECT_EQ(I, Isa::Avx512);
  EXPECT_TRUE(tensor::parseIsa("native", I, &Err));
  EXPECT_EQ(I, tensor::bestAvailableIsa());
  for (const char *Bad : {"", "AVX2", "sse", "avx", "scalar ", "2", "auto"}) {
    EXPECT_FALSE(tensor::parseIsa(Bad, I, &Err)) << "'" << Bad << "'";
    EXPECT_NE(Err.find(Bad), std::string::npos)
        << "error should echo the bad token: " << Err;
  }
}

TEST(KernelDispatch, SetIsaRejectsUnavailableAndUpdatesGauge) {
  for (Isa I : {Isa::Avx2, Isa::Avx512})
    if (!tensor::isaAvailable(I)) {
      std::string Err;
      EXPECT_FALSE(tensor::setIsa(I, &Err));
      EXPECT_FALSE(Err.empty());
    }
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    EXPECT_EQ(tensor::currentIsa(), I);
    EXPECT_EQ(support::Metrics::global().gauge("kernel.isa").value(),
              static_cast<double>(I));
  }
}

/// Dot and Sum must match the lane-ordered scalar emulation bit-for-bit
/// on every available ISA, for every vector-remainder shape.
TEST(KernelEquivalence, ReductionsMatchLaneOrderedEmulation) {
  support::Rng Rng(0x51D0);
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    const Kernels &K = tensor::kernels();
    ASSERT_EQ(K.Tag, I);
    for (size_t N : Sizes) {
      std::vector<double> X = randomVec(N, Rng), Y = randomVec(N, Rng);
      double Dot = K.Dot(X.data(), Y.data(), N);
      double Ref = tensor::detail::dotLanes(X.data(), Y.data(), N, K.Lanes);
      EXPECT_EQ(Dot, Ref) << "Dot isa=" << tensor::isaName(I) << " N=" << N;
      double Sum = K.Sum(X.data(), N);
      double SRef = tensor::detail::sumLanes(X.data(), N, K.Lanes);
      EXPECT_EQ(Sum, SRef) << "Sum isa=" << tensor::isaName(I) << " N=" << N;
    }
  }
}

/// DotTransposedB must equal a per-element dotLanes reference (with the
/// zero-row skip) on every ISA, in both accumulate modes.
TEST(KernelEquivalence, DotTransposedBMatchesEmulation) {
  support::Rng Rng(0xD07B);
  struct Shape {
    size_t N, M, D;
  };
  const Shape Shapes[] = {{1, 1, 1},  {3, 5, 7},   {4, 4, 8},  {5, 9, 16},
                          {7, 13, 17}, {2, 4, 100}, {6, 3, 33}, {8, 8, 1}};
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    const Kernels &K = tensor::kernels();
    for (const Shape &Sh : Shapes) {
      // ZeroProb high enough that whole rows of A go zero sometimes,
      // exercising the row-skip path.
      std::vector<double> A = randomVec(Sh.N * Sh.D, Rng, 0.4);
      if (Sh.N > 1) // force at least one all-zero row
        std::fill(A.begin(), A.begin() + Sh.D, 0.0);
      std::vector<double> B = randomVec(Sh.M * Sh.D, Rng);
      std::vector<double> Seed = randomVec(Sh.N * Sh.M, Rng);
      for (bool Accumulate : {false, true}) {
        // When not accumulating, C may start uninitialized -- seed it with
        // garbage to verify the kernel overwrites (or zero-fills) every
        // row, per the contract in tensor/Kernels.h.
        std::vector<double> C =
            Accumulate ? Seed : std::vector<double>(Sh.N * Sh.M, -777.0);
        K.DotTransposedB(A.data(), Sh.N, B.data(), Sh.M, Sh.D, C.data(),
                         Accumulate);
        std::vector<double> Ref = Accumulate
                                      ? Seed
                                      : std::vector<double>(Sh.N * Sh.M, 0.0);
        for (size_t R = 0; R < Sh.N; ++R) {
          const double *ARow = A.data() + R * Sh.D;
          bool AllZero = true;
          for (size_t Kk = 0; Kk < Sh.D && AllZero; ++Kk)
            AllZero = ARow[Kk] == 0.0;
          if (AllZero)
            continue; // untouched when accumulating, zero-filled otherwise
          for (size_t J = 0; J < Sh.M; ++J) {
            double V = tensor::detail::dotLanes(ARow, B.data() + J * Sh.D,
                                                Sh.D, K.Lanes);
            if (Accumulate)
              Ref[R * Sh.M + J] += V;
            else
              Ref[R * Sh.M + J] = V;
          }
        }
        EXPECT_EQ(std::memcmp(C.data(), Ref.data(),
                              C.size() * sizeof(double)),
                  0)
            << "DotTransposedB isa=" << tensor::isaName(I) << " N=" << Sh.N
            << " M=" << Sh.M << " D=" << Sh.D << " acc=" << Accumulate;
      }
    }
  }
}

/// The elementwise kernels carry no reassociation, so their bits must
/// agree with the scalar table on every ISA.
TEST(KernelEquivalence, ElementwiseBitIdenticalAcrossIsas) {
  support::Rng Rng(0xE1E3);
  for (size_t N : Sizes) {
    std::vector<double> X = randomVec(N, Rng), G = randomVec(N, Rng);
    std::vector<double> Y0 = randomVec(N, Rng);
    std::vector<double> V4 = randomVec(4, Rng);
    std::vector<double> C0 = randomVec(N, Rng), C1 = randomVec(N, Rng);
    std::vector<double> C2 = randomVec(N, Rng), C3 = randomVec(N, Rng);
    double A = Rng.gaussian();
    double Mean = Rng.gaussian();

    struct Snapshot {
      std::vector<double> Axpy, A40, A41, A42, A43, Sub, Abs, AccA, AccS,
          AccM;
    };
    auto Run = [&](const Kernels &K) {
      Snapshot S;
      S.Axpy = Y0;
      K.Axpy(A, X.data(), S.Axpy.data(), N);
      S.A40 = C0;
      S.A41 = C1;
      S.A42 = C2;
      S.A43 = C3;
      K.Axpy4(V4.data(), X.data(), S.A40.data(), S.A41.data(), S.A42.data(),
              S.A43.data(), N);
      S.Sub.resize(N);
      K.SubScale(X.data(), Mean, G.data(), S.Sub.data(), N);
      S.Abs.resize(N);
      K.AbsRow(X.data(), S.Abs.data(), N);
      S.AccA = G;
      K.AccAbs(X.data(), S.AccA.data(), N);
      S.AccS = G;
      K.AccSq(X.data(), S.AccS.data(), N);
      S.AccM.assign(N, 0.0);
      K.AccMaxAbs(X.data(), S.AccM.data(), N);
      return S;
    };

    Snapshot Want;
    {
      ScopedIsa S(Isa::Scalar);
      Want = Run(tensor::kernels());
    }
    for (Isa I : availableIsas()) {
      if (I == Isa::Scalar)
        continue;
      ScopedIsa S(I);
      Snapshot Got = Run(tensor::kernels());
      auto Same = [&](const auto &GotV, const auto &WantV, const char *What) {
        ASSERT_EQ(GotV.size(), WantV.size());
        if (GotV.empty()) // memcmp must not see the null data()
          return;
        EXPECT_EQ(std::memcmp(GotV.data(), WantV.data(),
                              GotV.size() * sizeof(GotV[0])),
                  0)
            << What << " isa=" << tensor::isaName(I) << " N=" << N;
      };
      Same(Got.Axpy, Want.Axpy, "Axpy");
      Same(Got.A40, Want.A40, "Axpy4.C0");
      Same(Got.A41, Want.A41, "Axpy4.C1");
      Same(Got.A42, Want.A42, "Axpy4.C2");
      Same(Got.A43, Want.A43, "Axpy4.C3");
      Same(Got.Sub, Want.Sub, "SubScale");
      Same(Got.Abs, Want.Abs, "AbsRow");
      Same(Got.AccA, Want.AccA, "AccAbs");
      Same(Got.AccS, Want.AccS, "AccSq");
      Same(Got.AccM, Want.AccM, "AccMaxAbs");
    }
  }
}

/// The fused kernels (RowSums, Axpy4K, CascadeDense) exist to cut
/// indirect-dispatch counts, not to change arithmetic: each must be
/// bit-identical to the composition of the unfused kernels it replaces,
/// on every ISA.
TEST(KernelEquivalence, FusedKernelsMatchUnfusedComposition) {
  support::Rng Rng(0xF05E);
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    const Kernels &K = tensor::kernels();

    // RowSums == Sum per row.
    for (size_t R : {1u, 3u, 7u}) {
      for (size_t C : {1u, 5u, 12u, 33u}) {
        std::vector<double> X = randomVec(R * C, Rng);
        std::vector<double> Got(R, -777.0), Want(R);
        K.RowSums(X.data(), R, C, Got.data());
        for (size_t Q = 0; Q < R; ++Q)
          Want[Q] = K.Sum(X.data() + Q * C, C);
        EXPECT_EQ(std::memcmp(Got.data(), Want.data(), R * sizeof(double)),
                  0)
            << "RowSums isa=" << tensor::isaName(I) << " R=" << R
            << " C=" << C;
      }
    }

    // Axpy4K == Axpy4 once per k, ascending.
    {
      size_t KN = 9, M = 13;
      std::vector<double> A0 = randomVec(KN, Rng), A1 = randomVec(KN, Rng);
      std::vector<double> A2 = randomVec(KN, Rng), A3 = randomVec(KN, Rng);
      std::vector<double> B = randomVec(KN * M, Rng);
      std::vector<double> Seed = randomVec(4 * M, Rng);
      std::vector<double> Got = Seed, Want = Seed;
      size_t K0 = 2, K1 = 8;
      K.Axpy4K(A0.data(), A1.data(), A2.data(), A3.data(), K0, K1, B.data(),
               Got.data(), Got.data() + M, Got.data() + 2 * M,
               Got.data() + 3 * M, M);
      for (size_t Kk = K0; Kk < K1; ++Kk) {
        double V[4] = {A0[Kk], A1[Kk], A2[Kk], A3[Kk]};
        K.Axpy4(V, B.data() + Kk * M, Want.data(), Want.data() + M,
                Want.data() + 2 * M, Want.data() + 3 * M, M);
      }
      EXPECT_EQ(std::memcmp(Got.data(), Want.data(), 4 * M * sizeof(double)),
                0)
          << "Axpy4K isa=" << tensor::isaName(I);
    }

    // CascadeDense == AbsRow / zero-skip / 1-row DotTransposedB /
    // accumulate per symbol, for each norm mode.
    for (double Q : {1.0, 2.0, Matrix::InfNorm}) {
      size_t SymN = 5, D = 11, M = 7, Stride = 2 * D;
      std::vector<double> A = randomVec(SymN * Stride, Rng, 0.3);
      std::fill(A.begin() + Stride, A.begin() + Stride + D,
                0.0); // an all-zero slice exercises the skip
      std::vector<double> B = randomVec(M * D, Rng);
      std::vector<double> Seed = randomVec(M, Rng);
      for (double &V : Seed)
        V = std::fabs(V); // the cascade accumulator is nonnegative
      std::vector<double> AbsS(D), T(M);
      std::vector<double> Got = Seed, Want = Seed;
      K.CascadeDense(A.data(), SymN, Stride, B.data(), M, D, Q, AbsS.data(),
                     T.data(), Got.data());
      for (size_t Sym = 0; Sym < SymN; ++Sym) {
        K.AbsRow(A.data() + Sym * Stride, AbsS.data(), D);
        bool AllZero = true;
        for (size_t Kk = 0; Kk < D && AllZero; ++Kk)
          AllZero = AbsS[Kk] == 0.0;
        if (AllZero)
          continue;
        K.DotTransposedB(AbsS.data(), 1, B.data(), M, D, T.data(), false);
        if (Q == 1.0)
          K.Axpy(1.0, T.data(), Want.data(), M);
        else if (Q == 2.0)
          K.AccSq(T.data(), Want.data(), M);
        else
          K.AccMaxAbs(T.data(), Want.data(), M);
      }
      EXPECT_EQ(std::memcmp(Got.data(), Want.data(), M * sizeof(double)), 0)
          << "CascadeDense isa=" << tensor::isaName(I) << " Q=" << Q;
    }
  }
}

/// The whole-plane fused kernel must reproduce the per-plane
/// DotTransposedB calls bit-for-bit: same zero-row fill/skip contract,
/// both accumulate modes, with and without the packing scratch, for the
/// shared-A (phi A-half), shared-B (phi B-half) and fully strided operand
/// layouts, on every ISA.
TEST(KernelEquivalence, DotPlanesFusedMatchesPerPlaneCalls) {
  support::Rng Rng(0xFA57);
  struct Shape {
    size_t N, M, D, S;
  };
  const Shape Shapes[] = {{1, 1, 1, 1},  {3, 5, 7, 4},  {4, 4, 8, 3},
                          {5, 9, 16, 2}, {7, 3, 17, 5}, {2, 4, 33, 6}};
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    const Kernels &K = tensor::kernels();
    for (const Shape &Sh : Shapes) {
      // Enough zeros that whole rows (and whole planes) go zero sometimes.
      std::vector<double> AShared = randomVec(Sh.N * Sh.D, Rng, 0.4);
      if (Sh.N > 1) // force the zero-flag hoist to see a zero row
        std::fill(AShared.begin(), AShared.begin() + Sh.D, 0.0);
      std::vector<double> APlanes = randomVec(Sh.S * Sh.N * Sh.D, Rng, 0.4);
      std::vector<double> BShared = randomVec(Sh.M * Sh.D, Rng);
      std::vector<double> BPlanes = randomVec(Sh.S * Sh.M * Sh.D, Rng);
      std::vector<double> Seed = randomVec(Sh.S * Sh.N * Sh.M, Rng);
      std::vector<double> Pack(tensor::dotPlanesPackDoubles(Sh.N, Sh.M, Sh.D));
      struct Layout {
        const char *Name;
        const double *A;
        size_t StrideA;
        const double *B;
        size_t StrideB;
      };
      const Layout Layouts[] = {
          {"sharedA", AShared.data(), 0, BPlanes.data(), Sh.M * Sh.D},
          {"sharedB", APlanes.data(), Sh.N * Sh.D, BShared.data(), 0},
          {"strided", APlanes.data(), Sh.N * Sh.D, BPlanes.data(),
           Sh.M * Sh.D},
      };
      for (const Layout &L : Layouts) {
        for (bool Accumulate : {false, true}) {
          for (bool UsePack : {false, true}) {
            std::vector<double> Got =
                Accumulate ? Seed
                           : std::vector<double>(Sh.S * Sh.N * Sh.M, -777.0);
            K.DotPlanesTransposedB(L.A, L.StrideA, Sh.N, L.B, L.StrideB,
                                   Sh.M, Sh.D, Sh.S, Got.data(), Sh.N * Sh.M,
                                   Accumulate,
                                   UsePack ? Pack.data() : nullptr);
            std::vector<double> Want =
                Accumulate ? Seed
                           : std::vector<double>(Sh.S * Sh.N * Sh.M, -777.0);
            for (size_t Sym = 0; Sym < Sh.S; ++Sym)
              K.DotTransposedB(L.A + Sym * L.StrideA, Sh.N,
                               L.B + Sym * L.StrideB, Sh.M, Sh.D,
                               Want.data() + Sym * Sh.N * Sh.M, Accumulate);
            EXPECT_EQ(std::memcmp(Got.data(), Want.data(),
                                  Got.size() * sizeof(double)),
                      0)
                << "DotPlanesTransposedB isa=" << tensor::isaName(I)
                << " layout=" << L.Name << " N=" << Sh.N << " M=" << Sh.M
                << " D=" << Sh.D << " S=" << Sh.S << " acc=" << Accumulate
                << " pack=" << UsePack;
          }
        }
      }
    }
  }
}

/// RowScale is elementwise (one multiply per entry, no reduction), so its
/// bits must match the plain scalar products on every ISA, for strided
/// row batches and every remainder shape.
TEST(KernelEquivalence, RowScaleBitIdenticalAcrossIsas) {
  support::Rng Rng(0x5CA1E);
  for (size_t N : Sizes) {
    size_t Stride = N + 3, R = 3;
    std::vector<double> Lambda = randomVec(N, Rng);
    std::vector<double> Base = randomVec(R * Stride, Rng);
    std::vector<double> Want = Base;
    for (size_t Q = 0; Q < R; ++Q)
      for (size_t J = 0; J < N; ++J)
        Want[Q * Stride + J] = Base[Q * Stride + J] * Lambda[J];
    for (Isa I : availableIsas()) {
      ScopedIsa S(I);
      std::vector<double> Rows = Base;
      tensor::kernels().RowScale(Lambda.data(), Rows.data(), R, Stride, N);
      EXPECT_EQ(std::memcmp(Rows.data(), Want.data(),
                            Rows.size() * sizeof(double)),
                0)
          << "RowScale isa=" << tensor::isaName(I) << " N=" << N;
    }
  }
}

/// Two zonotopes sharing one noise-symbol ancestry whose eps storage mixes
/// Dense, Diag and Zero blocks on both sides -- the realistic dotRows
/// operand shape (attention Q . K^T after elementwise + matmul layers).
void makeDotOperands(double P, zono::Zonotope &A, zono::Zonotope &B) {
  support::Rng Rng(0xD07F);
  Matrix Center = Matrix::randn(4, 6, Rng, 0.5);
  zono::Zonotope Z = zono::Zonotope::lpBall(Center, P, 0.05);
  Z = zono::applyTanh(Z); // Diag block on the shared prefix
  Matrix WA = Matrix::randn(6, 6, Rng, 0.4);
  A = zono::applyTanh(Z.matmulRightConst(WA)); // Dense + fresh Diag
  Matrix WB = Matrix::randn(6, 6, Rng, 0.4);
  B = Z.matmulRightConst(WB); // Dense blocks, missing A's later symbols
}

/// Exact equality of two zonotopes, densified for comparison.
::testing::AssertionResult zonoBitsEqual(const zono::Zonotope &A,
                                         const zono::Zonotope &B) {
  if (A.rows() != B.rows() || A.cols() != B.cols() ||
      A.numPhi() != B.numPhi() || A.numEps() != B.numEps())
    return ::testing::AssertionFailure() << "shape or symbol counts differ";
  auto Cmp = [](const char *What, const Matrix &X,
                const Matrix &Y) -> ::testing::AssertionResult {
    if (X.size() != Y.size())
      return ::testing::AssertionFailure() << What << " sizes differ";
    // An empty plane may have a null data pointer, which memcmp must not
    // see even for zero bytes.
    if (X.size() != 0 &&
        std::memcmp(X.data(), Y.data(), X.size() * sizeof(double)) != 0)
      return ::testing::AssertionFailure() << What << " bits differ";
    return ::testing::AssertionSuccess();
  };
  if (auto R = Cmp("center", A.center(), B.center()); !R)
    return R;
  if (auto R = Cmp("phi", A.phiCoeffs(), B.phiCoeffs()); !R)
    return R;
  return Cmp("eps", A.epsCoeffs(), B.epsCoeffs());
}

/// dotRows through the whole-plane fused path must not depend on the eps
/// block structure (blocks vs force-densified operands) or on the thread
/// count, for either method, on any ISA. Covers the stretch-batched Dense
/// runs, the Diag scatter rows and the Zero passthrough together.
TEST(KernelEquivalence, DotRowsBitIdenticalAcrossBlockMixesAndThreads) {
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    for (auto Method : {zono::DotMethod::Fast, zono::DotMethod::Precise}) {
      for (double P : {2.0, Matrix::InfNorm}) {
        zono::DotOptions Opts;
        Opts.Method = Method;
        zono::Zonotope A, B;
        makeDotOperands(P, A, B);
        ASSERT_GT(A.epsBlockCount(), 1u);
        zono::Zonotope Ref;
        {
          ScopedThreads T(1);
          Ref = zono::dotRows(A, B, Opts);
        }
        // Densified twins: same abstract value, single Dense block.
        zono::Zonotope AD = A, BD = B;
        AD.epsCoeffs();
        BD.epsCoeffs();
        {
          ScopedThreads T(1);
          EXPECT_TRUE(zonoBitsEqual(Ref, zono::dotRows(AD, BD, Opts)))
              << "blocks vs dense, isa=" << tensor::isaName(I);
        }
        for (size_t Threads : {2u, 8u}) {
          ScopedThreads T(Threads);
          EXPECT_TRUE(zonoBitsEqual(Ref, zono::dotRows(A, B, Opts)))
              << "threads=" << Threads << " isa=" << tensor::isaName(I);
        }
      }
    }
  }
}

/// The FLOP estimate must be block-aware: a Diag/Zero-heavy eps tail does
/// O(N + M) work per symbol, so it must charge far less than the same
/// abstract value pushed through with one dense block.
TEST(KernelEquivalence, DotRowsFlopsEstIsBlockAware) {
  zono::Zonotope A, B;
  makeDotOperands(2.0, A, B);
  zono::Zonotope AD = A, BD = B;
  AD.epsCoeffs();
  BD.epsCoeffs();
  support::Counter &Flops =
      support::Metrics::global().counter("zono.dot.flops_est");
  double Start = Flops.value();
  zono::dotRows(A, B);
  double BlockFlops = Flops.value() - Start;
  Start = Flops.value();
  zono::dotRows(AD, BD);
  double DenseFlops = Flops.value() - Start;
  EXPECT_GT(BlockFlops, 0.0);
  EXPECT_LT(BlockFlops, DenseFlops)
      << "block-aware estimate should be cheaper than the densified run";
}

/// The Eq. 6 eps-eps bound as the Precise method computed it before the
/// lane-group kernel: per output pair, one kernels().Dot call per
/// (active s, active t), folded serially. The oracle for
/// zono::detail::preciseEpsBound.
void perPairPreciseEpsBound(const Matrix &EA, size_t N, const Matrix &EB,
                            size_t M, size_t D, Matrix &Lo, Matrix &Hi) {
  auto Active = [D](const Matrix &C, size_t Rows) {
    std::vector<std::vector<size_t>> Out(Rows);
    for (size_t R = 0; R < Rows; ++R)
      for (size_t S = 0; S < C.rows(); ++S)
        for (size_t K = 0; K < D; ++K)
          if (C.rowPtr(S)[R * D + K] != 0.0) {
            Out[R].push_back(S);
            break;
          }
    return Out;
  };
  auto ActiveA = Active(EA, N), ActiveB = Active(EB, M);
  Lo = Matrix(N, M, 0.0);
  Hi = Matrix(N, M, 0.0);
  for (size_t I = 0; I < N; ++I) {
    for (size_t J = 0; J < M; ++J) {
      double L = 0.0, H = 0.0;
      for (size_t S : ActiveA[I]) {
        for (size_t T : ActiveB[J]) {
          double G = tensor::kernels().Dot(EA.rowPtr(S) + I * D,
                                           EB.rowPtr(T) + J * D, D);
          if (S == T) {
            if (G > 0.0)
              H += G;
            else
              L += G;
          } else {
            H += std::fabs(G);
            L -= std::fabs(G);
          }
        }
      }
      Lo.at(I, J) = L;
      Hi.at(I, J) = H;
    }
  }
}

/// Aligned eps coefficient planes for a Precise dot of an N x D and an
/// M x D view, shaped like the attention operands: Dense symbols active
/// on every row (with scattered zero entries), then fresh Diag-style
/// symbols each active on a single row of A only or of B only, all-zero
/// symbols in between, and one symbol per shared row whose B slice is the
/// negated A slice, so s == t meets a negative G. \p ZeroRowA zeroes one
/// row of A across every symbol (N when none).
void makePreciseOperands(size_t N, size_t M, size_t D, size_t Dense,
                         size_t FreshA, size_t FreshB, size_t ZeroRowA,
                         support::Rng &Rng, Matrix &EA, Matrix &EB) {
  size_t Shared = std::min(N, M);
  size_t E = Dense + FreshA * N + FreshB * M + Shared + 3;
  EA = Matrix(E, N * D, 0.0);
  EB = Matrix(E, M * D, 0.0);
  auto Fill = [&](double *Slice) {
    std::vector<double> V = randomVec(D, Rng, 0.2);
    std::copy(V.begin(), V.end(), Slice);
  };
  size_t S = 0;
  for (; S < Dense; ++S) {
    for (size_t R = 0; R < N; ++R)
      Fill(EA.rowPtr(S) + R * D);
    for (size_t R = 0; R < M; ++R)
      Fill(EB.rowPtr(S) + R * D);
  }
  ++S; // an all-zero symbol
  for (size_t R = 0; R < N; ++R)
    for (size_t F = 0; F < FreshA; ++F)
      EA.rowPtr(S++)[R * D + Rng.uniformInt(D)] = Rng.gaussian();
  ++S;
  for (size_t R = 0; R < M; ++R)
    for (size_t F = 0; F < FreshB; ++F)
      EB.rowPtr(S++)[R * D + Rng.uniformInt(D)] = Rng.gaussian();
  for (size_t R = 0; R < Shared; ++R, ++S) {
    Fill(EA.rowPtr(S) + R * D);
    for (size_t K = 0; K < D; ++K)
      EB.rowPtr(S)[R * D + K] = -EA.rowPtr(S)[R * D + K];
  }
  if (ZeroRowA < N)
    for (size_t Sy = 0; Sy < E; ++Sy)
      std::fill_n(EA.rowPtr(Sy) + ZeroRowA * D, D, 0.0);
}

/// The lane-group Eq. 6 kernel must reproduce the per-pair Dot loop
/// 0-ULP on every ISA at 1, 2 and 8 threads: D covering the pure tail and
/// lanes plus tail of each table's Dot order, pair counts that are not a
/// multiple of the group width, fresh symbols active on one row only,
/// an all-zero row, and s == t with negative G. Fresh symbols on the A
/// side give the lanes active lists of different lengths (lanes run out
/// early); on the B side they shift where each lane meets its diagonal.
TEST(KernelEquivalence, PreciseEpsBoundMatchesPerPairDotLoop) {
  struct Shape {
    size_t N, M;
  };
  // N * M in {1, 7, 9, 36, 100}.
  const Shape Shapes[] = {{1, 1}, {7, 1}, {1, 9}, {9, 4}, {10, 10}};
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    size_t L = tensor::kernels().Lanes;
    // L - 1 is 0 on the scalar table (L = 1); D = 0 has no slices. D = 3,
    // 4, 10 and 11 sit on both edges of the compile-time-D range 4..10;
    // 13 and 19 run the runtime-D loop on every table.
    std::vector<size_t> Ds = {1, 3, std::max<size_t>(L - 1, 1), L, L + 1,
                              2 * L + 3, 4, 10, 11, 13, 19};
    std::sort(Ds.begin(), Ds.end());
    Ds.erase(std::unique(Ds.begin(), Ds.end()), Ds.end());
    support::Rng Rng(0xE06 + static_cast<int>(I));
    for (const Shape &Sh : Shapes) {
      for (size_t D : Ds) {
        for (bool FreshOnA : {true, false}) {
          Matrix EA, EB;
          makePreciseOperands(Sh.N, Sh.M, D, 12, FreshOnA ? 4 : 1,
                              FreshOnA ? 1 : 4, Sh.N > 2 ? 1 : Sh.N, Rng, EA,
                              EB);
          Matrix WantLo, WantHi;
          perPairPreciseEpsBound(EA, Sh.N, EB, Sh.M, D, WantLo, WantHi);
          for (size_t Threads : {1u, 2u, 8u}) {
            ScopedThreads T(Threads);
            Matrix Lo, Hi;
            zono::detail::preciseEpsBound(EA, Sh.N, EB, Sh.M, D, Lo, Hi);
            auto Where = [&] {
              return ::testing::Message()
                     << "isa=" << tensor::isaName(I) << " N=" << Sh.N
                     << " M=" << Sh.M << " D=" << D
                     << " freshOnA=" << FreshOnA << " threads=" << Threads;
            };
            ASSERT_EQ(Lo.size(), WantLo.size()) << Where();
            EXPECT_EQ(std::memcmp(Lo.data(), WantLo.data(),
                                  Lo.size() * sizeof(double)),
                      0)
                << "Lo " << Where();
            EXPECT_EQ(std::memcmp(Hi.data(), WantHi.data(),
                                  Hi.size() * sizeof(double)),
                      0)
                << "Hi " << Where();
          }
        }
      }
    }
  }
}

/// With a non-finite coefficient a zero slice no longer contributes +0
/// (0 * inf is NaN), so every pair must run on its own active lists: the
/// result must still match the per-pair loop, NaN for NaN.
TEST(KernelEquivalence, PreciseEpsBoundNonFiniteRunsPerPair) {
  support::Rng Rng(0x1DF);
  for (Isa I : availableIsas()) {
    ScopedIsa Sc(I);
    Matrix EA, EB;
    makePreciseOperands(9, 3, 6, 5, 2, 2, 9, Rng, EA, EB);
    // Active on B row 0 only; A rows whose slice of this symbol is zero
    // must not see it.
    EB.rowPtr(0)[1] = std::numeric_limits<double>::infinity();
    std::fill_n(EA.rowPtr(0) + 2 * 6, 6, 0.0);
    Matrix WantLo, WantHi, Lo, Hi;
    perPairPreciseEpsBound(EA, 9, EB, 3, 6, WantLo, WantHi);
    zono::detail::preciseEpsBound(EA, 9, EB, 3, 6, Lo, Hi);
    for (size_t V = 0; V < Lo.size(); ++V) {
      for (auto [Got, Want] : {std::pair(Lo.flat(V), WantLo.flat(V)),
                               std::pair(Hi.flat(V), WantHi.flat(V))}) {
        if (std::isnan(Want))
          EXPECT_TRUE(std::isnan(Got)) << "var " << V;
        else
          EXPECT_EQ(std::bit_cast<std::uint64_t>(Got),
                    std::bit_cast<std::uint64_t>(Want))
              << "var " << V << " isa=" << tensor::isaName(I);
      }
    }
  }
}

/// Precise calls add the Eq. 6 work -- 2 D multiply-adds per (active s,
/// active t) of every pair -- to zono.dot.flops_est.
TEST(KernelEquivalence, PreciseEpsBoundCountsWork) {
  support::Rng Rng(0xF10);
  Matrix EA, EB;
  makePreciseOperands(3, 2, 4, 6, 1, 1, 3, Rng, EA, EB);
  auto ActiveCount = [](const Matrix &C, size_t Rows, size_t D) {
    double Count = 0.0;
    for (size_t R = 0; R < Rows; ++R)
      for (size_t S = 0; S < C.rows(); ++S)
        for (size_t K = 0; K < D; ++K)
          if (C.rowPtr(S)[R * D + K] != 0.0) {
            Count += 1.0;
            break;
          }
    return Count;
  };
  support::Counter &Flops =
      support::Metrics::global().counter("zono.dot.flops_est");
  double Start = Flops.value();
  Matrix Lo, Hi;
  zono::detail::preciseEpsBound(EA, 3, EB, 2, 4, Lo, Hi);
  EXPECT_EQ(Flops.value() - Start,
            2.0 * 4 * ActiveCount(EA, 3, 4) * ActiveCount(EB, 2, 4));
}

/// A small zonotope with both phi and eps symbols pushed through linear +
/// ReLU transformers -- the realistic radii workload.
zono::Zonotope makeZonotope(double P, support::Rng &Rng) {
  Matrix Center = Matrix::randn(6, 12, Rng);
  zono::Zonotope Z = zono::Zonotope::lpBallOnRow(Center, 1, P, 0.1);
  Matrix W = Matrix::randn(12, 10, Rng);
  Z = Z.matmulRightConst(W);
  Z = zono::applyRelu(std::move(Z)); // introduces eps symbols
  Matrix W2 = Matrix::randn(10, 8, Rng);
  return Z.matmulRightConst(W2);
}

/// Per-ISA thread-count invariance: radii bits must not depend on the
/// pool size under any kernel table.
TEST(KernelEquivalence, RadiiBitIdenticalAcrossThreadCountsPerIsa) {
  for (Isa I : availableIsas()) {
    ScopedIsa S(I);
    for (double P : {1.0, 2.0, Matrix::InfNorm}) {
      support::Rng Rng(0xAD11);
      zono::Zonotope Z = makeZonotope(P, Rng);
      Matrix R1;
      {
        ScopedThreads T(1);
        R1 = Z.radii();
      }
      for (size_t Threads : {2u, 8u}) {
        ScopedThreads T(Threads);
        Matrix RN = Z.radii();
        ASSERT_EQ(RN.size(), R1.size());
        EXPECT_EQ(std::memcmp(RN.data(), R1.data(),
                              R1.size() * sizeof(double)),
                  0)
            << "radii differ at " << Threads << " threads, isa="
            << tensor::isaName(I) << " p=" << P;
      }
    }
  }
}

/// End-to-end regression pins for the whole-plane fused rewrite: margins
/// on the cached sst_m12 model must reproduce the pre-fusion release
/// bit-for-bit at the scalar ISA (the one table whose reduction order is
/// shared by every build). Values were captured from the prior release
/// with the deept_cli recipe: seed 2, word 0, eps 0.02, noise budget 600,
/// skipping misclassified sentences. Also asserts 1/2/8-thread identity
/// on the same margins.
TEST(KernelEquivalence, CachedSstMarginsBitIdenticalToPreFusionRelease) {
  nn::TransformerModel Model;
  const std::string Candidates[] = {
      nn::defaultModelCacheDir() + "/sst_m12.dptm",
      "../bench/deept-model-cache/sst_m12.dptm",
      "../../bench/deept-model-cache/sst_m12.dptm",
  };
  bool Loaded = false;
  for (const std::string &Path : Candidates)
    if (nn::loadModel(Path, Model)) {
      Loaded = true;
      break;
    }
  if (!Loaded)
    GTEST_SKIP() << "cached sst_m12.dptm not found";
  if (!tensor::isaAvailable(Isa::Scalar))
    GTEST_SKIP() << "scalar table unavailable";
  ScopedIsa Sc(Isa::Scalar);

  // The deept_cli sentence selection: sample with seed 2, keep the first
  // two sentences the model classifies correctly with word 0 in range.
  data::SyntheticCorpus Corpus(
      data::CorpusConfig::sstLike(Model.Config.EmbedDim));
  support::Rng Rng(2);
  std::vector<data::Sentence> Sentences;
  while (Sentences.size() < 2) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label || S.Tokens.empty())
      continue;
    Sentences.push_back(S);
  }

  struct Pin {
    double P;
    zono::DotMethod Method;
    size_t Sentence;       // index into Sentences
    std::uint64_t Margin;  // expected margin bits at eps = 0.02
  };
  const Pin Pins[] = {
      {1.0, zono::DotMethod::Fast, 0, 0x40206eeab69d022aULL},
      {1.0, zono::DotMethod::Fast, 1, 0x40206eeaa9710f63ULL},
      {2.0, zono::DotMethod::Fast, 0, 0x40206eeab69c71a3ULL},
      {2.0, zono::DotMethod::Fast, 1, 0xc01ea8221cad9cf1ULL},
      {Matrix::InfNorm, zono::DotMethod::Fast, 0, 0xc02191d8066a3bb9ULL},
      {Matrix::InfNorm, zono::DotMethod::Fast, 1, 0xc02191d8066a3bb9ULL},
      {1.0, zono::DotMethod::Precise, 0, 0x40206eeab69d0231ULL},
  };
  for (const Pin &Pn : Pins) {
    const data::Sentence &S = Sentences[Pn.Sentence];
    verify::VerifierConfig VC;
    VC.NoiseReductionBudget = 600;
    VC.Method = Pn.Method;
    verify::DeepTVerifier V(Model, VC);
    Matrix Emb = Model.embed(S.Tokens);
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(Emb, 0, Pn.P, 0.02);
    double Want = std::bit_cast<double>(Pn.Margin);
    double Margin1;
    {
      ScopedThreads T(1);
      Margin1 = V.certifyMargin(In, S.Label);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Margin1), Pn.Margin)
        << "margin drifted from the pre-fusion release: p=" << Pn.P
        << " sentence=" << Pn.Sentence + 1 << " method="
        << (Pn.Method == zono::DotMethod::Fast ? "fast" : "precise")
        << " got=" << Margin1 << " want=" << Want;
    for (size_t Threads : {2u, 8u}) {
      ScopedThreads T(Threads);
      EXPECT_EQ(Margin1, V.certifyMargin(In, S.Label))
          << "margin differs at " << Threads << " threads, p=" << Pn.P;
    }
  }
}

} // namespace
