//===- tests/zonotope_test.cpp --------------------------------*- C++ -*-===//
//
// Soundness and precision tests for the Multi-norm Zonotope domain.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"
#include "zono/DotProduct.h"
#include "zono/Elementwise.h"
#include "zono/Reduction.h"
#include "zono/Refinement.h"
#include "zono/Softmax.h"
#include "zono/Zonotope.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

using namespace deept;
using namespace deept::zono;
using namespace deept::testhelp;
using tensor::Matrix;

namespace {

// The three norms the paper certifies against.
const double Norms[] = {1.0, 2.0, Matrix::InfNorm};

std::string normName(double P) {
  if (P == 1.0)
    return "l1";
  if (P == 2.0)
    return "l2";
  return "linf";
}

class NormParamTest : public ::testing::TestWithParam<double> {};

} // namespace

//===----------------------------------------------------------------------===//
// Construction and bounds (Theorem 1)
//===----------------------------------------------------------------------===//

TEST_P(NormParamTest, LpBallBoundsMatchRadius) {
  double P = GetParam();
  support::Rng Rng(1);
  Matrix Center = Matrix::randn(3, 4, Rng);
  Zonotope Z = Zonotope::lpBallOnRow(Center, 1, P, 0.5);
  Matrix Lo, Hi;
  Z.bounds(Lo, Hi);
  for (size_t C = 0; C < 4; ++C) {
    // Unperturbed rows are exact.
    EXPECT_DOUBLE_EQ(Lo.at(0, C), Center.at(0, C));
    EXPECT_DOUBLE_EQ(Hi.at(2, C), Center.at(2, C));
    // Each coordinate of the perturbed row can move by the full radius
    // (the lp ball touches every axis).
    EXPECT_NEAR(Hi.at(1, C) - Center.at(1, C), 0.5, 1e-12);
    EXPECT_NEAR(Center.at(1, C) - Lo.at(1, C), 0.5, 1e-12);
  }
}

TEST_P(NormParamTest, SampledPointsRespectBounds) {
  double P = GetParam();
  support::Rng Rng(2);
  Zonotope Z = randomZonotope(2, 3, P, 4, 5, Rng);
  Matrix Lo, Hi;
  Z.bounds(Lo, Hi);
  for (int I = 0; I < 200; ++I) {
    Matrix X = Z.sample(Rng, I % 2 == 0);
    EXPECT_TRUE(withinBounds(X, Lo, Hi));
  }
}

TEST(Zonotope, BoundsAreTightForL2) {
  // One variable x = 0 + [1, 1] . phi with ||phi||_2 <= 1 has bounds
  // +- sqrt(2) (dual norm, Lemma 1), not +-2 (which interval analysis on
  // the coefficients would give).
  Zonotope Z = Zonotope::constant(Matrix(1, 1, 0.0), 2.0);
  Matrix Phi(2, 1);
  Phi.at(0, 0) = 1.0;
  Phi.at(1, 0) = 1.0;
  Z.installCoeffs(std::move(Phi), Matrix(0, 1));
  Matrix Lo, Hi;
  Z.bounds(Lo, Hi);
  EXPECT_NEAR(Hi.at(0, 0), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(Lo.at(0, 0), -std::sqrt(2.0), 1e-12);
}

TEST(Zonotope, BoxConstruction) {
  Matrix Lo0 = Matrix::fromRows({{-1, 2}});
  Matrix Hi0 = Matrix::fromRows({{1, 2}});
  Zonotope Z = Zonotope::box(Lo0, Hi0);
  EXPECT_EQ(Z.numEps(), 1u); // degenerate dimension gets no symbol
  Matrix Lo, Hi;
  Z.bounds(Lo, Hi);
  EXPECT_TRUE(tensor::allClose(Lo, Lo0, 1e-12));
  EXPECT_TRUE(tensor::allClose(Hi, Hi0, 1e-12));
}

//===----------------------------------------------------------------------===//
// Affine transformers (Theorem 2: exactness)
//===----------------------------------------------------------------------===//

TEST_P(NormParamTest, AffineOpsAreExactOnSamples) {
  double P = GetParam();
  support::Rng Rng(3);
  Zonotope Z = randomZonotope(3, 4, P, 3, 6, Rng);
  Matrix W = Matrix::randn(4, 2, Rng);
  Matrix WL = Matrix::randn(5, 3, Rng);
  Matrix Gamma = Matrix::randn(1, 4, Rng);
  Matrix Bias = Matrix::randn(1, 4, Rng);

  Zonotope ZW = Z.matmulRightConst(W);
  Zonotope ZL = Z.matmulLeftConst(WL);
  Zonotope ZM = Z.subRowMean();
  Zonotope ZG = Z.scaleColumns(Gamma).addRowBroadcast(Bias);
  Zonotope ZS = Z.scale(-2.5).addConst(Matrix(3, 4, 1.0));

  for (int I = 0; I < 50; ++I) {
    std::vector<double> Phi, Eps;
    Z.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
    Matrix X = Z.evaluate(Phi, Eps);

    EXPECT_TRUE(
        tensor::allClose(ZW.evaluate(Phi, Eps), tensor::matmul(X, W), 1e-9));
    EXPECT_TRUE(
        tensor::allClose(ZL.evaluate(Phi, Eps), tensor::matmul(WL, X), 1e-9));

    Matrix Mean = X.rowMeans();
    Matrix XM = X;
    for (size_t R = 0; R < 3; ++R)
      for (size_t C = 0; C < 4; ++C)
        XM.at(R, C) -= Mean.at(R, 0);
    EXPECT_TRUE(tensor::allClose(ZM.evaluate(Phi, Eps), XM, 1e-9));

    Matrix XG = X;
    for (size_t R = 0; R < 3; ++R)
      for (size_t C = 0; C < 4; ++C)
        XG.at(R, C) = XG.at(R, C) * Gamma.at(0, C) + Bias.at(0, C);
    EXPECT_TRUE(tensor::allClose(ZG.evaluate(Phi, Eps), XG, 1e-9));

    EXPECT_TRUE(tensor::allClose(ZS.evaluate(Phi, Eps),
                                 X * -2.5 + Matrix(3, 4, 1.0), 1e-9));
  }
}

TEST_P(NormParamTest, AddSubSharedSymbolsCancel) {
  double P = GetParam();
  support::Rng Rng(4);
  Zonotope Z = randomZonotope(2, 2, P, 3, 4, Rng);
  Zonotope Diff = Z.sub(Z);
  Matrix Lo, Hi;
  Diff.bounds(Lo, Hi);
  // x - x must be exactly 0: shared symbols cancel.
  EXPECT_NEAR(Lo.maxAbs(), 0.0, 1e-12);
  EXPECT_NEAR(Hi.maxAbs(), 0.0, 1e-12);
}

TEST(Zonotope, ViewsPermuteCoefficientsConsistently) {
  support::Rng Rng(5);
  Zonotope Z = randomZonotope(3, 4, 2.0, 2, 3, Rng);
  Zonotope T = Z.transposedView();
  Zonotope C = Z.selectColRange(1, 3);
  Zonotope R = Z.selectRow(2);
  for (int I = 0; I < 20; ++I) {
    std::vector<double> Phi, Eps;
    Z.sampleNoise(Rng, false, Phi, Eps);
    Matrix X = Z.evaluate(Phi, Eps);
    EXPECT_TRUE(tensor::allClose(T.evaluate(Phi, Eps), X.transposed(), 1e-9));
    EXPECT_TRUE(tensor::allClose(C.evaluate(Phi, Eps), X.colSlice(1, 3), 1e-9));
    EXPECT_TRUE(tensor::allClose(R.evaluate(Phi, Eps), X.rowSlice(2, 3), 1e-9));
  }
}

TEST(Zonotope, ConcatColsRoundTrips) {
  support::Rng Rng(6);
  Zonotope Z = randomZonotope(3, 6, 2.0, 2, 4, Rng);
  Zonotope A = Z.selectColRange(0, 2);
  Zonotope B = Z.selectColRange(2, 6);
  Zonotope Back = Zonotope::concatCols({A, B});
  for (int I = 0; I < 10; ++I) {
    std::vector<double> Phi, Eps;
    Z.sampleNoise(Rng, false, Phi, Eps);
    EXPECT_TRUE(tensor::allClose(Back.evaluate(Phi, Eps),
                                 Z.evaluate(Phi, Eps), 1e-9));
  }
}

//===----------------------------------------------------------------------===//
// Elementwise transformers (Sections 4.3-4.6): soundness on samples
//===----------------------------------------------------------------------===//

namespace {

void checkElementwiseSoundness(double P,
                               Zonotope (*Apply)(const Zonotope &),
                               double (*Concrete)(double), uint64_t Seed,
                               double CenterShift = 0.0) {
  support::Rng Rng(Seed);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Zonotope Z = randomZonotope(2, 3, P, 3, 4, Rng);
    if (CenterShift != 0.0)
      Z = Z.addConst(Matrix(2, 3, CenterShift));
    Zonotope Out = Apply(Z);
    for (int I = 0; I < 40; ++I) {
      std::vector<double> Phi, Eps;
      Z.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
      Matrix X = Z.evaluate(Phi, Eps);
      Matrix FX = X.map([&](double V) { return Concrete(V); });
      EXPECT_TRUE(coveredAt(Out, Phi, Eps, FX));
    }
  }
}

double concreteRelu(double X) { return X > 0 ? X : 0.0; }
double concreteRecip(double X) { return 1.0 / X; }

} // namespace

TEST_P(NormParamTest, ReluTransformerSound) {
  checkElementwiseSoundness(GetParam(), [](const Zonotope &Z) {
    return applyRelu(Z);
  }, concreteRelu, 100);
}

TEST_P(NormParamTest, TanhTransformerSound) {
  checkElementwiseSoundness(GetParam(), [](const Zonotope &Z) {
    return applyTanh(Z);
  }, [](double X) { return std::tanh(X); }, 101);
}

TEST_P(NormParamTest, ExpTransformerSound) {
  checkElementwiseSoundness(GetParam(), [](const Zonotope &Z) {
    return applyExp(Z);
  }, [](double X) { return std::exp(X); }, 102);
}

TEST_P(NormParamTest, RecipTransformerSound) {
  // Shift centers so inputs are strictly positive (the softmax context).
  checkElementwiseSoundness(GetParam(), [](const Zonotope &Z) {
    return applyRecip(Z);
  }, concreteRecip, 103, /*CenterShift=*/6.0);
}

TEST_P(NormParamTest, SqrtTransformerSound) {
  checkElementwiseSoundness(GetParam(), [](const Zonotope &Z) {
    return applySqrt(Z);
  }, [](double X) { return std::sqrt(X); }, 104, /*CenterShift=*/6.0);
}

TEST(Elementwise, ReluPieceCases) {
  // Stable negative: output identically zero.
  LinearPiece P = reluPiece(-3.0, -1.0);
  EXPECT_DOUBLE_EQ(P.Lambda, 0.0);
  EXPECT_DOUBLE_EQ(P.Mu, 0.0);
  EXPECT_DOUBLE_EQ(P.BetaNew, 0.0);
  // Stable positive: identity.
  P = reluPiece(0.5, 2.0);
  EXPECT_DOUBLE_EQ(P.Lambda, 1.0);
  EXPECT_DOUBLE_EQ(P.BetaNew, 0.0);
  // Crossing: minimal-area coefficients of Eq. 2.
  P = reluPiece(-1.0, 3.0);
  EXPECT_NEAR(P.Lambda, 0.75, 1e-12);
  EXPECT_NEAR(P.Mu, 0.375, 1e-12);
  EXPECT_NEAR(P.BetaNew, 0.375, 1e-12);
}

TEST(Elementwise, ExpLowerSupportStaysPositive) {
  // The t_opt = min(t_crit, l + 1 - eps) choice guarantees a positive
  // lower support line on [l, u] (needed by the reciprocal that follows).
  for (double L : {-4.0, -1.0, 0.0, 2.0}) {
    for (double Width : {0.1, 1.0, 5.0}) {
      LinearPiece P = expPiece(L, L + Width);
      double LowerAtL = P.Lambda * L + P.Mu - P.BetaNew;
      double LowerAtU = P.Lambda * (L + Width) + P.Mu - P.BetaNew;
      EXPECT_GT(LowerAtL, 0.0);
      EXPECT_GT(LowerAtU, 0.0);
    }
  }
}

TEST(Elementwise, PiecesEnvelopeFunctionOnGrid) {
  // Dense pointwise check that each relaxation envelopes its function.
  struct Case {
    LinearPiece (*Piece)(double, double);
    double (*Fn)(double);
    double L, U;
  };
  auto TanhP = [](double L, double U) { return tanhPiece(L, U); };
  auto ExpP = [](double L, double U) { return expPiece(L, U, 0.01); };
  auto RecP = [](double L, double U) { return recipPiece(L, U, 0.01); };
  auto SqrtP = [](double L, double U) { return sqrtPiece(L, U); };
  Case Cases[] = {
      {+TanhP, [](double X) { return std::tanh(X); }, -2.0, 1.5},
      {+ExpP, [](double X) { return std::exp(X); }, -1.0, 2.0},
      {+RecP, [](double X) { return 1.0 / X; }, 0.5, 9.0},
      {+SqrtP, [](double X) { return std::sqrt(X); }, 0.25, 16.0},
  };
  for (const Case &C : Cases) {
    LinearPiece P = C.Piece(C.L, C.U);
    for (int I = 0; I <= 200; ++I) {
      double X = C.L + (C.U - C.L) * I / 200.0;
      double Y = C.Fn(X);
      double Lo = P.Lambda * X + P.Mu - P.BetaNew;
      double Hi = P.Lambda * X + P.Mu + P.BetaNew;
      EXPECT_LE(Lo, Y + 1e-9);
      EXPECT_GE(Hi, Y - 1e-9);
    }
  }
}

/// Every 1e100 cover -- unbounded or NaN ranges, and convex pieces that
/// invert -- bumps zono.elementwise.unbounded_fallbacks exactly once;
/// ordinary pieces leave it alone. The exp sweep covers narrow ranges at
/// large inputs, where the upper and lower offsets (~lambda * t) cancel
/// and the piece can invert.
TEST(Elementwise, UnboundedFallbacksAreCounted) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  support::Counter &Fallbacks = support::Metrics::global().counter(
      "zono.elementwise.unbounded_fallbacks");
  double Start = Fallbacks.value();
  std::vector<LinearPiece> Pieces = {reluPiece(-Inf, 1.0), expPiece(NaN, 1.0),
                                     recipPiece(1.0, NaN), sqrtPiece(0.0, Inf)};
  for (double T = 20.0; T < 40.0; T += 0.37)
    for (double W = 1e-8; W < 1e-2; W *= 3.1)
      Pieces.push_back(expPiece(T, T + W));
  Pieces.push_back(expPiece(0.0, 1.0));
  Pieces.push_back(recipPiece(1.0, 2.0));
  double Covers = 0.0;
  for (const LinearPiece &P : Pieces)
    Covers += P.BetaNew == 1e100 ? 1.0 : 0.0;
  EXPECT_GE(Covers, 4.0);
  EXPECT_EQ(Fallbacks.value() - Start, Covers);
}

TEST(Elementwise, NonFiniteBoundsFallBackSoundly) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // relu and sqrt cannot build a finite relaxation over unbounded or NaN
  // ranges: they must return the huge-interval cover (certification over
  // such a range fails, but no NaN leaks into coefficient matrices).
  for (LinearPiece P : {reluPiece(-Inf, 1.0), reluPiece(-1.0, NaN),
                        sqrtPiece(NaN, Inf), sqrtPiece(0.0, Inf)}) {
    EXPECT_EQ(P.Lambda, 0.0);
    EXPECT_TRUE(std::isfinite(P.Mu));
    EXPECT_GE(P.BetaNew, 1e99);
  }
  // NaN bounds poison exp / recip the same way.
  for (LinearPiece P : {expPiece(NaN, 1.0), recipPiece(1.0, NaN)}) {
    EXPECT_EQ(P.Lambda, 0.0);
    EXPECT_GE(P.BetaNew, 1e99);
  }
  // Stable relu cases stay exact even with an unbounded far endpoint.
  LinearPiece Neg = reluPiece(-Inf, -1.0);
  EXPECT_EQ(Neg.Lambda, 0.0);
  EXPECT_EQ(Neg.BetaNew, 0.0);
  LinearPiece Pos = reluPiece(1.0, Inf);
  EXPECT_EQ(Pos.Lambda, 1.0);
  EXPECT_EQ(Pos.BetaNew, 0.0);
  // tanh is bounded, so even unbounded or NaN inputs admit an exact
  // finite interval inside [-1, 1].
  for (LinearPiece P : {tanhPiece(-Inf, Inf), tanhPiece(NaN, NaN),
                        tanhPiece(-Inf, 0.5), tanhPiece(NaN, 2.0)}) {
    EXPECT_EQ(P.Lambda, 0.0);
    EXPECT_TRUE(std::isfinite(P.Mu));
    EXPECT_TRUE(std::isfinite(P.BetaNew));
    EXPECT_LE(std::fabs(P.Mu) + P.BetaNew, 1.0 + 1e-12);
  }
  // The exp saturation fallback: a range deep in the clamped regime makes
  // the convex construction invert, which must yield the huge interval
  // rather than a negative radius or NaN.
  LinearPiece Sat = expPiece(-Inf, 0.0);
  EXPECT_TRUE(std::isfinite(Sat.Lambda));
  EXPECT_TRUE(std::isfinite(Sat.Mu));
  EXPECT_TRUE(std::isfinite(Sat.BetaNew));
  EXPECT_GE(Sat.BetaNew, 0.0);
}

//===----------------------------------------------------------------------===//
// Zonotope soundness validation
//===----------------------------------------------------------------------===//

TEST(Zonotope, ValidateAcceptsWellFormed) {
  support::Rng Rng(321);
  Zonotope Z = randomZonotope(3, 4, 2.0, 2, 3, Rng);
  std::string Why;
  EXPECT_TRUE(Z.validate(&Why)) << Why;
  // A zonotope fresh off the input constructor validates too.
  Matrix C = Matrix::randn(2, 5, Rng);
  EXPECT_TRUE(Zonotope::lpBallOnRow(C, 0, 2.0, 0.1).validate(&Why)) << Why;
}

TEST(Zonotope, ValidateRejectsNonFiniteEntries) {
  support::Rng Rng(322);
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  {
    Zonotope Z = randomZonotope(3, 4, 2.0, 2, 3, Rng);
    Z.center().at(1, 2) = NaN;
    std::string Why;
    EXPECT_FALSE(Z.validate(&Why));
    EXPECT_NE(Why.find("center"), std::string::npos) << Why;
  }
  {
    Zonotope Z = randomZonotope(3, 4, 2.0, 2, 3, Rng);
    Z.phiCoeffs().at(0, 0) = Inf;
    std::string Why;
    EXPECT_FALSE(Z.validate(&Why));
    EXPECT_NE(Why.find("phi"), std::string::npos) << Why;
  }
  {
    Zonotope Z = randomZonotope(3, 4, 2.0, 2, 3, Rng);
    Z.epsCoeffs().at(0, 0) = NaN;
    std::string Why;
    EXPECT_FALSE(Z.validate(&Why));
    EXPECT_NE(Why.find("eps"), std::string::npos) << Why;
  }
}

TEST(Zonotope, ValidateRejectsShapeMismatch) {
  support::Rng Rng(323);
  Zonotope Z = randomZonotope(3, 4, 2.0, 2, 3, Rng);
  // A coefficient matrix whose column count disagrees with the variable
  // count is exactly the bug class validate() exists to catch.
  Z.phiCoeffs() = Matrix::randn(2, 5, Rng);
  std::string Why;
  EXPECT_FALSE(Z.validate(&Why));
  EXPECT_NE(Why.find("column"), std::string::npos) << Why;
}

//===----------------------------------------------------------------------===//
// Dot product transformers (Section 4.8)
//===----------------------------------------------------------------------===//

namespace {

void checkDotSoundness(double P, DotMethod Method, DualNormOrder Order,
                       uint64_t Seed) {
  support::Rng Rng(Seed);
  DotOptions Opts;
  Opts.Method = Method;
  Opts.Order = Order;
  for (int Trial = 0; Trial < 6; ++Trial) {
    // A and B share the symbol space: derive both from a common parent so
    // correlations between them are genuine.
    Zonotope Parent = randomZonotope(4, 6, P, 3, 5, Rng);
    Zonotope A = Parent.selectColRange(0, 3);
    Zonotope B = Parent.selectColRange(3, 6);
    Zonotope Out = dotRows(A, B, Opts);
    ASSERT_EQ(Out.rows(), 4u);
    ASSERT_EQ(Out.cols(), 4u);
    for (int I = 0; I < 40; ++I) {
      std::vector<double> Phi, Eps;
      Parent.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
      Matrix XA = A.evaluate(Phi, Eps);
      Matrix XB = B.evaluate(Phi, Eps);
      Matrix Concrete = tensor::matmulTransposedB(XA, XB);
      EXPECT_TRUE(coveredAt(Out, Phi, Eps, Concrete));
    }
  }
}

} // namespace

TEST_P(NormParamTest, DotRowsFastSoundInfFirst) {
  checkDotSoundness(GetParam(), DotMethod::Fast, DualNormOrder::InfFirst,
                    200);
}

TEST_P(NormParamTest, DotRowsFastSoundLpFirst) {
  checkDotSoundness(GetParam(), DotMethod::Fast, DualNormOrder::LpFirst, 201);
}

TEST_P(NormParamTest, DotRowsPreciseSound) {
  checkDotSoundness(GetParam(), DotMethod::Precise, DualNormOrder::InfFirst,
                    202);
}

TEST(DotProduct, PreciseNeverWorseThanFastOnEpsOnly) {
  // With only eps symbols (p = inf setting), the Eq. 6 interval analysis
  // dominates the Eq. 5 cascade.
  support::Rng Rng(7);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Zonotope Parent =
        randomZonotope(3, 4, Matrix::InfNorm, 0, 6, Rng);
    Zonotope A = Parent.selectColRange(0, 2);
    Zonotope B = Parent.selectColRange(2, 4);
    Zonotope Fast = dotRows(A, B, {DotMethod::Fast, DualNormOrder::InfFirst});
    Zonotope Precise =
        dotRows(A, B, {DotMethod::Precise, DualNormOrder::InfFirst});
    Matrix LF, HF, LP, HP;
    Fast.bounds(LF, HF);
    Precise.bounds(LP, HP);
    for (size_t V = 0; V < Fast.numVars(); ++V) {
      EXPECT_LE(HP.flat(V), HF.flat(V) + 1e-9);
      EXPECT_GE(LP.flat(V), LF.flat(V) - 1e-9);
    }
  }
}

TEST(DotProduct, ExactForConstantOperand) {
  // If B carries no noise the product is affine, so the transformer must
  // introduce (almost) no overapproximation.
  support::Rng Rng(8);
  Zonotope A = randomZonotope(3, 4, 2.0, 2, 3, Rng);
  Matrix BC = Matrix::randn(5, 4, Rng);
  Zonotope B = Zonotope::constant(BC, 2.0);
  Zonotope Out = dotRows(A, B);
  Zonotope Affine = A.matmulRightConst(BC.transposed());
  Matrix LoO, HiO, LoA, HiA;
  Out.bounds(LoO, HiO);
  Affine.bounds(LoA, HiA);
  EXPECT_TRUE(tensor::allClose(LoO, LoA, 1e-9));
  EXPECT_TRUE(tensor::allClose(HiO, HiA, 1e-9));
}

TEST_P(NormParamTest, MulElementwiseSound) {
  double P = GetParam();
  support::Rng Rng(9);
  for (int Trial = 0; Trial < 6; ++Trial) {
    Zonotope Parent = randomZonotope(2, 6, P, 3, 5, Rng);
    Zonotope A = Parent.selectColRange(0, 3);
    Zonotope B = Parent.selectColRange(3, 6);
    for (DotMethod M : {DotMethod::Fast, DotMethod::Precise}) {
      Zonotope Out = mulElementwise(A, B, {M, DualNormOrder::InfFirst});
      for (int I = 0; I < 30; ++I) {
        std::vector<double> Phi, Eps;
        Parent.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
        Matrix Concrete =
            tensor::hadamard(A.evaluate(Phi, Eps), B.evaluate(Phi, Eps));
        EXPECT_TRUE(coveredAt(Out, Phi, Eps, Concrete));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Softmax (Section 5.2) and its sum refinement (Section 5.3)
//===----------------------------------------------------------------------===//

TEST_P(NormParamTest, SoftmaxStableSound) {
  double P = GetParam();
  support::Rng Rng(300);
  for (int Trial = 0; Trial < 5; ++Trial) {
    Zonotope Scores = randomZonotope(3, 4, P, 2, 4, Rng);
    Zonotope Out = applySoftmax(Scores);
    for (int I = 0; I < 30; ++I) {
      std::vector<double> Phi, Eps;
      Scores.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
      Matrix Concrete = tensor::rowSoftmax(Scores.evaluate(Phi, Eps));
      EXPECT_TRUE(coveredAt(Out, Phi, Eps, Concrete, 1e-6));
    }
  }
}

TEST_P(NormParamTest, SoftmaxNaiveSound) {
  double P = GetParam();
  support::Rng Rng(301);
  SoftmaxOptions Opts;
  Opts.StableRewrite = false;
  for (int Trial = 0; Trial < 5; ++Trial) {
    Zonotope Scores = randomZonotope(2, 3, P, 2, 4, Rng);
    Zonotope Out = applySoftmax(Scores, Opts);
    for (int I = 0; I < 30; ++I) {
      std::vector<double> Phi, Eps;
      Scores.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
      Matrix Concrete = tensor::rowSoftmax(Scores.evaluate(Phi, Eps));
      EXPECT_TRUE(coveredAt(Out, Phi, Eps, Concrete, 1e-6));
    }
  }
}

TEST(Softmax, StableRewriteTighterThanNaive) {
  // Section 5.2's motivation: the rewrite cancels shared noise symbols and
  // skips the multiplication transformer, so its output intervals are
  // tighter on average.
  support::Rng Rng(302);
  double StableWidth = 0.0, NaiveWidth = 0.0;
  for (int Trial = 0; Trial < 10; ++Trial) {
    Zonotope Scores = randomZonotope(2, 4, 2.0, 2, 4, Rng);
    SoftmaxOptions Naive;
    Naive.StableRewrite = false;
    Matrix Lo, Hi;
    applySoftmax(Scores).bounds(Lo, Hi);
    StableWidth += (Hi - Lo).sum();
    applySoftmax(Scores, Naive).bounds(Lo, Hi);
    NaiveWidth += (Hi - Lo).sum();
  }
  EXPECT_LT(StableWidth, NaiveWidth);
}

TEST(Softmax, OutputsWithinUnitInterval) {
  // The stable rewrite guarantees softmax outputs in (0, 1] structurally.
  support::Rng Rng(303);
  Zonotope Scores = randomZonotope(3, 3, 2.0, 2, 3, Rng);
  Matrix Lo, Hi;
  applySoftmax(Scores).bounds(Lo, Hi);
  for (size_t V = 0; V < Lo.size(); ++V) {
    EXPECT_GT(Hi.flat(V), 0.0);
    EXPECT_LE(Lo.flat(V), 1.0 + 1e-9);
  }
}

TEST_P(NormParamTest, SoftmaxRefinementSoundAndTighter) {
  double P = GetParam();
  support::Rng Rng(304);
  double Refined = 0.0, Plain = 0.0;
  for (int Trial = 0; Trial < 5; ++Trial) {
    Zonotope Scores = randomZonotope(2, 4, P, 2, 4, Rng);
    Zonotope Out = applySoftmax(Scores);
    Zonotope RefinedOut = Out;
    // A co-live tensor sharing the symbol space (prefix-aligned).
    Zonotope CoLive = Scores;
    CoLive.padEpsTo(RefinedOut.numEps());
    refineSoftmaxSum(RefinedOut, {&CoLive});

    Matrix Lo, Hi;
    Out.bounds(Lo, Hi);
    Plain += (Hi - Lo).sum();
    RefinedOut.bounds(Lo, Hi);
    Refined += (Hi - Lo).sum();

    for (int I = 0; I < 40; ++I) {
      std::vector<double> Phi, Eps;
      Scores.sampleNoise(Rng, I % 2 == 0, Phi, Eps);
      Matrix X = Scores.evaluate(Phi, Eps);
      Matrix Concrete = tensor::rowSoftmax(X);
      // After refinement the shared symbols have been rewritten, so check
      // interval soundness of the refined output and the co-live tensor.
      Matrix RLo, RHi;
      RefinedOut.bounds(RLo, RHi);
      EXPECT_TRUE(withinBounds(Concrete, RLo, RHi, 1e-6));
      Matrix CLo, CHi;
      CoLive.bounds(CLo, CHi);
      EXPECT_TRUE(withinBounds(X, CLo, CHi, 1e-6));
    }
  }
  EXPECT_LE(Refined, Plain + 1e-9);
}

/// The deterministic-selection breakpoint picker must reproduce the
/// sort-based reference it replaced: sort by position, take the first
/// prefix reaching half the total weight, and when the median breakpoint
/// comes from a phi symbol fall back to the best of the nearest non-phi
/// neighbours and t = 0. Weights are powers of two so every cumulative
/// sum is exact in either summation order and the comparison is 0-ULP.
TEST(Refinement, SelectBreakpointMatchesSortReference) {
  using zono::detail::Breakpoint;
  auto ObjectiveAt = [](const std::vector<Breakpoint> &Points, double T) {
    double V = 0.0;
    for (const Breakpoint &B : Points)
      V += B.Weight * std::fabs(T - B.Pos);
    return V;
  };
  auto SortRef = [&](std::vector<Breakpoint> Points) -> double {
    if (Points.empty())
      return 0.0;
    std::sort(Points.begin(), Points.end(),
              [](const Breakpoint &A, const Breakpoint &B) {
                return A.Pos < B.Pos;
              });
    double Total = 0.0;
    for (const Breakpoint &B : Points)
      Total += B.Weight;
    double Cum = 0.0;
    size_t Median = Points.size() - 1;
    for (size_t I = 0; I < Points.size(); ++I) {
      Cum += Points[I].Weight;
      if (Cum >= 0.5 * Total) {
        Median = I;
        break;
      }
    }
    // Any breakpoint sharing the median position counts as a non-phi
    // representative; the selection variant returns that position.
    double W = Points[Median].Pos;
    for (const Breakpoint &B : Points)
      if (!B.FromPhi && B.Pos == W)
        return W;
    double Best = 0.0;
    double BestVal = ObjectiveAt(Points, 0.0);
    for (size_t I = Median;; --I) {
      if (!Points[I].FromPhi) {
        double Val = ObjectiveAt(Points, Points[I].Pos);
        if (Val < BestVal) {
          BestVal = Val;
          Best = Points[I].Pos;
        }
        break;
      }
      if (I == 0)
        break;
    }
    for (size_t I = Median + 1; I < Points.size(); ++I) {
      if (!Points[I].FromPhi) {
        double Val = ObjectiveAt(Points, Points[I].Pos);
        if (Val < BestVal) {
          BestVal = Val;
          Best = Points[I].Pos;
        }
        break;
      }
    }
    return Best;
  };

  support::Rng Rng(0x3E1EC7);
  auto Pow2Weight = [&]() {
    return std::ldexp(1.0, static_cast<int>(Rng.uniform() * 17.0) - 8);
  };
  for (int Trial = 0; Trial < 300; ++Trial) {
    // Sizes straddling the quickselect base case (16) in both directions.
    size_t N = 1 + static_cast<size_t>(Rng.uniform() * 120);
    int Mode = Trial % 3;
    std::vector<Breakpoint> Points(N);
    for (Breakpoint &B : Points) {
      double Pos = Rng.gaussian();
      if (Mode == 1) // duplicate positions exercise the tie handling
        Pos = std::round(Pos * 4.0) / 4.0;
      bool FromPhi = Mode == 2 || (Mode == 0 && Rng.uniform() < 0.5);
      if (Mode == 1)
        FromPhi = false;
      B = {Pos, Pow2Weight(), FromPhi};
    }
    double Want = SortRef(Points);
    std::vector<Breakpoint> Work = Points; // selectBreakpoint permutes
    double Got = zono::detail::selectBreakpoint(Work);
    EXPECT_EQ(Got, Want) << "trial " << Trial << " n=" << N
                         << " mode=" << Mode;
  }
}

//===----------------------------------------------------------------------===//
// Noise symbol reduction (Section 5.1)
//===----------------------------------------------------------------------===//

TEST(Reduction, PreservesPerVariableIntervals) {
  support::Rng Rng(400);
  Zonotope Z = randomZonotope(3, 4, 2.0, 2, 40, Rng);
  Matrix Lo0, Hi0;
  Z.bounds(Lo0, Hi0);
  size_t Dropped = reduceEpsSymbols(Z, 10);
  EXPECT_EQ(Dropped, 30u);
  EXPECT_LE(Z.numEps(), 10u + Z.numVars());
  Matrix Lo1, Hi1;
  Z.bounds(Lo1, Hi1);
  // DecorrelateMin_k folds dropped symbols into per-variable intervals of
  // identical width: concrete bounds are unchanged.
  EXPECT_TRUE(tensor::allClose(Lo0, Lo1, 1e-9));
  EXPECT_TRUE(tensor::allClose(Hi0, Hi1, 1e-9));
}

TEST(Reduction, NoOpBelowBudget) {
  support::Rng Rng(401);
  Zonotope Z = randomZonotope(2, 2, 2.0, 1, 5, Rng);
  EXPECT_EQ(reduceEpsSymbols(Z, 10), 0u);
  EXPECT_EQ(Z.numEps(), 5u);
}

TEST(Reduction, KeepsHighestMassSymbols) {
  // Build a zonotope where symbol 1 clearly dominates; after reduction to
  // one kept symbol, cross-variable correlation through symbol 1 must be
  // preserved (x - y still cancels partially).
  Zonotope Z = Zonotope::constant(Matrix(1, 2, 0.0), Matrix::InfNorm);
  Matrix Eps(3, 2);
  Eps.at(0, 0) = 0.01;
  Eps.at(1, 0) = 1.0;
  Eps.at(1, 1) = 1.0; // dominant, correlates both variables
  Eps.at(2, 1) = 0.02;
  Z.installCoeffs(Matrix(0, 2), std::move(Eps));
  reduceEpsSymbols(Z, 1);
  // x - y: the kept correlated symbol cancels; only the folded intervals
  // (0.01 + 0.02) remain.
  Zonotope D = Z.selectColRange(0, 1).sub(Z.selectColRange(1, 2));
  Matrix Lo, Hi;
  D.bounds(Lo, Hi);
  EXPECT_NEAR(Hi.at(0, 0), 0.03, 1e-12);
}

TEST(Reduction, SamplesStillCovered) {
  support::Rng Rng(402);
  Zonotope Z = randomZonotope(2, 3, 1.0, 3, 30, Rng);
  std::vector<Matrix> Points;
  for (int I = 0; I < 50; ++I)
    Points.push_back(Z.sample(Rng, I % 2 == 0));
  reduceEpsSymbols(Z, 5);
  Matrix Lo, Hi;
  Z.bounds(Lo, Hi);
  for (const Matrix &X : Points)
    EXPECT_TRUE(withinBounds(X, Lo, Hi));
}

INSTANTIATE_TEST_SUITE_P(Norms, NormParamTest, ::testing::ValuesIn(Norms),
                         [](const ::testing::TestParamInfo<double> &Info) {
                           return normName(Info.param);
                         });
