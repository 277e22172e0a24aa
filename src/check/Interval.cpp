//===- check/Interval.cpp -------------------------------------*- C++ -*-===//
//
// This TU is compiled with -frounding-math (see src/CMakeLists.txt) so
// the compiler must not constant-fold or reorder across the fesetround()
// calls; the volatile operands are belt and braces on top of that.
//
//===----------------------------------------------------------------------===//

#include "check/Interval.h"

#include <cfenv>
#include <cmath>
#include <limits>

using namespace deept;
using namespace deept::check;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// RAII rounding-mode switch restoring the previous mode.
struct RoundMode {
  int Old;
  explicit RoundMode(int M) : Old(fegetround()) { fesetround(M); }
  ~RoundMode() { fesetround(Old); }
};

/// One ULP toward -inf / +inf; sound fallback widening for any
/// correctly-rounded primitive (the RN result is within one ULP of the
/// exact value, so its ULP-neighbour on the far side brackets it).
double nudgeDown(double X) { return std::nextafter(X, -Inf); }
double nudgeUp(double X) { return std::nextafter(X, Inf); }

} // namespace

bool check::directedRoundingHonored() {
  static const bool Honored = [] {
    volatile double One = 1.0;
    volatile double Tiny = 0x1p-60;
    double Down, Up;
    {
      RoundMode R(FE_DOWNWARD);
      volatile double S = One + Tiny;
      Down = S;
    }
    {
      RoundMode R(FE_UPWARD);
      volatile double S = One + Tiny;
      Up = S;
    }
    return Down == 1.0 && Up > 1.0;
  }();
  return Honored;
}

#define DEEPT_DIRECTED_BINOP(NAME, OP, MODE, NUDGE)                       \
  double check::NAME(double A, double B) {                                \
    if (directedRoundingHonored()) {                                      \
      RoundMode R(MODE);                                                  \
      volatile double X = A, Y = B;                                       \
      volatile double S = X OP Y;                                         \
      return S;                                                           \
    }                                                                     \
    return NUDGE(A OP B);                                                 \
  }

DEEPT_DIRECTED_BINOP(addDown, +, FE_DOWNWARD, nudgeDown)
DEEPT_DIRECTED_BINOP(addUp, +, FE_UPWARD, nudgeUp)
DEEPT_DIRECTED_BINOP(subDown, -, FE_DOWNWARD, nudgeDown)
DEEPT_DIRECTED_BINOP(subUp, -, FE_UPWARD, nudgeUp)
DEEPT_DIRECTED_BINOP(mulDown, *, FE_DOWNWARD, nudgeDown)
DEEPT_DIRECTED_BINOP(mulUp, *, FE_UPWARD, nudgeUp)

#undef DEEPT_DIRECTED_BINOP

double check::sqrtDown(double A) {
  if (directedRoundingHonored()) {
    RoundMode R(FE_DOWNWARD);
    volatile double X = A;
    volatile double S = std::sqrt(X);
    return S;
  }
  return nudgeDown(std::sqrt(A));
}

double check::sqrtUp(double A) {
  if (directedRoundingHonored()) {
    RoundMode R(FE_UPWARD);
    volatile double X = A;
    volatile double S = std::sqrt(X);
    return S;
  }
  return nudgeUp(std::sqrt(A));
}

Interval check::loEnclosure(double C, double A, double B) {
  // c - (a + b): the inner sum down-rounds for the upper bound of the
  // subtraction and up-rounds for the lower bound.
  return {subDown(C, addUp(A, B)), subUp(C, addDown(A, B))};
}

Interval check::hiEnclosure(double C, double A, double B) {
  return {addDown(C, addDown(A, B)), addUp(C, addUp(A, B))};
}

size_t check::firstUnreplayedBound(const double *C, const double *A,
                                   const double *B, const double *Lo,
                                   const double *Hi, size_t N,
                                   bool &UpperFailed) {
  // Every step rounds down, and each upward-rounded term of loEnclosure /
  // hiEnclosure is computed as up(x) = -down(-x), exact because negation
  // is: the same bits as the scalar ops, including their nudge fallback.
  const bool Nudge = !directedRoundingHonored();
  RoundMode R(Nudge ? fegetround() : FE_DOWNWARD);
  auto Down = [Nudge](double X) { return Nudge ? nudgeDown(X) : X; };
  for (size_t V = 0; V < N; ++V) {
    volatile double Cv = C[V], Av = A[V], Bv = B[V];
    volatile double SumDown = Down(Av + Bv), NegSumUp = Down(-Av - Bv);
    Interval L{Down(Cv + NegSumUp), -Down(SumDown - Cv)};
    Interval H{Down(Cv + SumDown), -Down(NegSumUp - Cv)};
    if (!L.contains(Lo[V]) || !H.contains(Hi[V])) {
      UpperFailed = L.contains(Lo[V]);
      return V;
    }
  }
  return N;
}

namespace {

/// One pass of dualNormEnclosure under rounding mode \p Mode: sums |v|
/// (or v*v when \p Square) in ascending index order, then takes the
/// square root when \p Square. Without directed rounding every rounded
/// step is nudged one ULP instead, as the scalar ops do.
double directedNorm(const std::vector<double> &V, bool Square, int Mode) {
  const bool Nudge = !directedRoundingHonored();
  const double Toward = Mode == FE_DOWNWARD ? -Inf : Inf;
  auto Round = [&](double X) { return Nudge ? std::nextafter(X, Toward) : X; };
  RoundMode R(Mode);
  volatile double S = 0.0;
  for (double X : V) {
    volatile double T = Square ? Round(X * X) : std::fabs(X); // |v| is exact
    S = Round(S + T);
  }
  return Square ? Round(std::sqrt(S)) : S;
}

} // namespace

Interval check::dualNormEnclosure(double Q, const std::vector<double> &V) {
  if (Q == -1.0) {
    // q = infinity: max |v|, exact in floating point.
    double M = 0.0;
    for (double X : V)
      M = std::fabs(X) > M ? std::fabs(X) : M;
    return {M, M};
  }
  // q = 2 (Euclidean) or q = 1 (sum of absolutes), one pass per side.
  return {directedNorm(V, Q == 2.0, FE_DOWNWARD),
          directedNorm(V, Q == 2.0, FE_UPWARD)};
}
