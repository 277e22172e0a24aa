//===- zono/Elementwise.cpp -----------------------------------*- C++ -*-===//

#include "zono/Elementwise.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace deept;
using namespace deept::zono;

namespace {

/// exp() saturates at this exponent. Inputs beyond it only occur when the
/// abstraction has already exploded (the certification attempt fails
/// regardless); saturating keeps the arithmetic finite and NaN-free.
constexpr double ExpClampExponent = 100.0;

double clampedExp(double X) { return std::exp(std::min(X, ExpClampExponent)); }

/// Sound cover for bounds the precise constructions cannot handle (NaN
/// or unbounded ranges, or a convex piece that inverted): certification
/// over such a range must fail, so a huge symmetric interval is returned
/// instead of letting NaN leak into the coefficient matrices. Each use
/// bumps zono.elementwise.unbounded_fallbacks, so a run shows how often
/// it lost an element this way.
LinearPiece unboundedPiece() {
  static support::Counter &Fallbacks = support::Metrics::global().counter(
      "zono.elementwise.unbounded_fallbacks");
  Fallbacks.add(1);
  LinearPiece P;
  P.Lambda = 0.0;
  P.Mu = 0.0;
  P.BetaNew = 1e100;
  return P;
}

/// Builds the zonotope piece for a convex function from a tangent point T:
/// the lower support line is the tangent at T, the upper support line is
/// the tightest line of the same slope anchored at the worse endpoint.
/// Sound for any T > 0 domain point of the function.
LinearPiece convexPiece(double Lambda, double FT, double T, double FL,
                        double L, double FU, double U) {
  double LowerOffset = FT - Lambda * T;
  double UpperOffset = std::max(FL - Lambda * L, FU - Lambda * U);
  LinearPiece P;
  P.Lambda = Lambda;
  P.Mu = 0.5 * (UpperOffset + LowerOffset);
  P.BetaNew = 0.5 * (UpperOffset - LowerOffset);
  // In the exp-saturated regime (see ExpClampExponent) the clamped
  // function is no longer convex and the construction can invert or
  // overflow. Narrow ranges with a large Lambda * T invert too: BetaNew
  // is then a difference of two offsets of size ~Lambda * T that rounds
  // negative (EXPERIMENTS.md, "Known deviations"). Either way, fall back
  // to the unbounded cover.
  if (!(P.BetaNew >= -1e-12) || !std::isfinite(P.BetaNew) ||
      !std::isfinite(P.Mu) || !std::isfinite(P.Lambda))
    return unboundedPiece();
  P.BetaNew = std::max(P.BetaNew, 0.0);
  return P;
}

/// Interval (slope-free) relaxation used as a degenerate-range fallback.
LinearPiece intervalPiece(double FLo, double FHi) {
  LinearPiece P;
  P.Lambda = 0.0;
  P.Mu = 0.5 * (FHi + FLo);
  P.BetaNew = 0.5 * (FHi - FLo);
  return P;
}

constexpr double DegenerateWidth = 1e-9;

} // namespace

LinearPiece deept::zono::reluPiece(double L, double U) {
  assert(!(L > U) && "invalid bounds");
  LinearPiece P;
  if (U <= 0.0)
    return P; // y = 0.
  if (L >= 0.0) {
    P.Lambda = 1.0;
    return P; // y = x.
  }
  // A crossing range with a NaN or infinite endpoint would turn the
  // minimal-area formula into NaN (inf/inf); cover it instead.
  if (!std::isfinite(L) || !std::isfinite(U))
    return unboundedPiece();
  // Minimal-area crossing case (paper Eq. 2).
  double Lambda = U / (U - L);
  double Mu = 0.5 * std::max(-Lambda * L, (1.0 - Lambda) * U);
  P.Lambda = Lambda;
  P.Mu = Mu;
  P.BetaNew = Mu;
  return P;
}

LinearPiece deept::zono::tanhPiece(double L, double U) {
  assert(!(L > U) && "invalid bounds");
  // tanh is bounded, so even NaN / infinite bounds admit an exact finite
  // interval (tanh(+-inf) = +-1; a NaN endpoint widens to the limit).
  if (!std::isfinite(L) || !std::isfinite(U))
    return intervalPiece(std::isnan(L) ? -1.0 : std::tanh(L),
                         std::isnan(U) ? 1.0 : std::tanh(U));
  if (U - L < DegenerateWidth)
    return intervalPiece(std::tanh(L), std::tanh(U));
  double TL = std::tanh(L), TU = std::tanh(U);
  double Lambda = std::min(1.0 - TL * TL, 1.0 - TU * TU);
  LinearPiece P;
  P.Lambda = Lambda;
  P.Mu = 0.5 * (TU + TL - Lambda * (U + L));
  P.BetaNew = 0.5 * (TU - TL - Lambda * (U - L));
  assert(P.BetaNew >= -1e-12 && "tanh piece produced negative radius");
  P.BetaNew = std::max(P.BetaNew, 0.0);
  return P;
}

LinearPiece deept::zono::expPiece(double L, double U, double Eps) {
  assert(!(L > U) && "invalid bounds");
  if (std::isnan(L) || std::isnan(U))
    return unboundedPiece();
  double EL = clampedExp(L), EU = clampedExp(U);
  if (U - L < DegenerateWidth)
    return intervalPiece(EL, EU);
  // t_crit matches the chord slope; t_crit2 keeps the tangent's lower
  // support line strictly positive on [L, U] (paper Section 4.5).
  double ChordSlope = (EU - EL) / (U - L);
  double TCrit = std::log(std::max(ChordSlope, 1e-300));
  double TCrit2 = L + 1.0 - Eps;
  double TOpt = std::min(TCrit, TCrit2);
  double Lambda = clampedExp(TOpt);
  return convexPiece(Lambda, clampedExp(TOpt), TOpt, EL, L, EU, U);
}

LinearPiece deept::zono::recipPiece(double L, double U, double Eps) {
  assert(!(L > U) && "invalid bounds");
  if (std::isnan(L) || std::isnan(U))
    return unboundedPiece();
  // The transformer is only defined for positive inputs (the softmax
  // denominator is >= 1 by construction); clamp defensively.
  L = std::max(L, 1e-12);
  U = std::max(U, L);
  if (U - L < DegenerateWidth)
    return intervalPiece(1.0 / U, 1.0 / L);
  double TCrit = std::sqrt(U * L);
  double TCrit2 = 0.5 * U + Eps;
  // t_crit minimises the area; t_crit2 keeps the tangent's lower support
  // line positive at u (it is (2t - u) / t^2 there). Taking the max keeps
  // the tangent point inside-or-right-of the area-optimal point, which is
  // both sound (any tangent point works with the endpoint-anchored upper
  // line) and positive. Note: the paper's Section 4.6 prints min(., .),
  // but with min the tangent for narrow ranges [l, u] with l > u/2 lands
  // near u/2, far outside the range, and the relaxation degenerates; max
  // matches the construction's stated properties.
  double TOpt = std::max(TCrit, TCrit2);
  double Lambda = -1.0 / (TOpt * TOpt);
  return convexPiece(Lambda, 1.0 / TOpt, TOpt, 1.0 / L, L, 1.0 / U, U);
}

LinearPiece deept::zono::sqrtPiece(double L, double U) {
  assert(!(L > U) && "invalid bounds");
  // sqrt is unbounded above and its tangent construction NaNs on infinite
  // or NaN endpoints; cover them.
  if (!std::isfinite(L) || !std::isfinite(U))
    return unboundedPiece();
  L = std::max(L, 0.0);
  U = std::max(U, L);
  if (U - L < DegenerateWidth)
    return intervalPiece(std::sqrt(L), std::sqrt(U));
  double SL = std::sqrt(L), SU = std::sqrt(U);
  // Concave: chord below, tangent of equal slope above. The chord slope is
  // matched by the tangent at sqrt(t) = (sqrt(l) + sqrt(u)) / 2.
  double Lambda = 1.0 / (SL + SU);
  double ST = 0.5 * (SL + SU);
  double UpperOffset = ST - Lambda * ST * ST;
  double LowerOffset = SL - Lambda * L; // == SU - Lambda * U on the chord.
  LinearPiece P;
  P.Lambda = Lambda;
  P.Mu = 0.5 * (UpperOffset + LowerOffset);
  P.BetaNew = 0.5 * (UpperOffset - LowerOffset);
  assert(P.BetaNew >= -1e-12 && "sqrt piece produced negative radius");
  P.BetaNew = std::max(P.BetaNew, 0.0);
  return P;
}

Zonotope deept::zono::applyElementwise(
    const Zonotope &Z,
    const std::function<LinearPiece(double, double)> &PieceFn) {
  return applyElementwiseFn(Z, PieceFn);
}

namespace {

support::Counter &elementwiseCalls(const char *Fn) {
  return support::Metrics::global().counter(
      std::string("zono.elementwise.") + Fn + ".calls");
}

} // namespace

Zonotope deept::zono::applyRelu(const Zonotope &Z) {
  static support::Counter &Calls = elementwiseCalls("relu");
  Calls.add(1);
  return applyElementwiseFn(Z,
                            [](double L, double U) { return reluPiece(L, U); });
}

Zonotope deept::zono::applyRelu(Zonotope &&Z) {
  static support::Counter &Calls = elementwiseCalls("relu");
  Calls.add(1);
  return applyElementwiseFn(std::move(Z),
                            [](double L, double U) { return reluPiece(L, U); });
}

Zonotope deept::zono::applyTanh(const Zonotope &Z) {
  static support::Counter &Calls = elementwiseCalls("tanh");
  Calls.add(1);
  return applyElementwiseFn(Z,
                            [](double L, double U) { return tanhPiece(L, U); });
}

Zonotope deept::zono::applyTanh(Zonotope &&Z) {
  static support::Counter &Calls = elementwiseCalls("tanh");
  Calls.add(1);
  return applyElementwiseFn(std::move(Z),
                            [](double L, double U) { return tanhPiece(L, U); });
}

Zonotope deept::zono::applyExp(const Zonotope &Z, double Eps) {
  static support::Counter &Calls = elementwiseCalls("exp");
  Calls.add(1);
  return applyElementwiseFn(
      Z, [Eps](double L, double U) { return expPiece(L, U, Eps); });
}

Zonotope deept::zono::applyExp(Zonotope &&Z, double Eps) {
  static support::Counter &Calls = elementwiseCalls("exp");
  Calls.add(1);
  return applyElementwiseFn(
      std::move(Z), [Eps](double L, double U) { return expPiece(L, U, Eps); });
}

Zonotope deept::zono::applyRecip(const Zonotope &Z, double Eps) {
  static support::Counter &Calls = elementwiseCalls("recip");
  Calls.add(1);
  return applyElementwiseFn(
      Z, [Eps](double L, double U) { return recipPiece(L, U, Eps); });
}

Zonotope deept::zono::applyRecip(Zonotope &&Z, double Eps) {
  static support::Counter &Calls = elementwiseCalls("recip");
  Calls.add(1);
  return applyElementwiseFn(
      std::move(Z),
      [Eps](double L, double U) { return recipPiece(L, U, Eps); });
}

Zonotope deept::zono::applySqrt(const Zonotope &Z) {
  static support::Counter &Calls = elementwiseCalls("sqrt");
  Calls.add(1);
  return applyElementwiseFn(Z,
                            [](double L, double U) { return sqrtPiece(L, U); });
}

Zonotope deept::zono::applySqrt(Zonotope &&Z) {
  static support::Counter &Calls = elementwiseCalls("sqrt");
  Calls.add(1);
  return applyElementwiseFn(std::move(Z),
                            [](double L, double U) { return sqrtPiece(L, U); });
}
