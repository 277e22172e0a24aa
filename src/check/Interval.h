//===- check/Interval.h - Directed-rounding interval core ------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic core of the independent certificate checker
/// (tools/deept_check). Deliberately tiny and self-contained: directed
/// additions / subtractions / multiplications / square roots plus the two
/// dual-norm reductions the certificates record. It shares NO code with
/// the tensor / zonotope / verify layers -- the whole point of the checker
/// is that a bug in the producer's kernels cannot also hide in the
/// replay.
///
/// Each scalar op returns a value rounded toward -inf (Down) or +inf (Up)
/// relative to the exact result. The implementation uses fesetround()
/// with volatile operands in a TU compiled with -frounding-math; a
/// runtime self-test (directedRoundingHonored) detects platforms where
/// the mode switch is not honored and falls back to a 1-ULP
/// nextafter-widening of the round-to-nearest result, which is sound for
/// every correctly-rounded primitive (+, -, *, sqrt). The array passes
/// below switch the mode once per pass, with the scalar ops' bits.
///
/// Soundness argument used by the replay: directed per-step accumulation
/// brackets ANY faithful round-to-nearest accumulation of the same terms
/// in the same order, including FMA-contracted ones, by monotonicity of
/// the rounding functions (down(x) <= nearest(x) <= up(x) and all three
/// are monotone). So the producer's recorded values -- computed with
/// round-to-nearest kernels at any ISA -- always fall inside the directed
/// enclosure replayed from the same inputs, while a tampered value one
/// ULP outside it is rejected.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_CHECK_INTERVAL_H
#define DEEPT_CHECK_INTERVAL_H

#include <cstddef>
#include <vector>

namespace deept {
namespace check {

/// A closed interval [Lo, Hi].
struct Interval {
  double Lo = 0.0;
  double Hi = 0.0;

  bool contains(double X) const { return Lo <= X && X <= Hi; }
};

/// True when fesetround(FE_DOWNWARD/FE_UPWARD) demonstrably affects
/// double arithmetic in this process (cached self-test). When false the
/// directed ops below widen round-to-nearest results by one ULP instead,
/// which is sound but one ULP looser per operation.
bool directedRoundingHonored();

double addDown(double A, double B);
double addUp(double A, double B);
double subDown(double A, double B);
double subUp(double A, double B);
double mulDown(double A, double B);
double mulUp(double A, double B);
double sqrtDown(double A);
double sqrtUp(double A);

/// The directed enclosure of c - (a + b) -- the lower-bound expression of
/// Theorem 1 in exactly the association the producer uses.
Interval loEnclosure(double C, double A, double B);
/// The directed enclosure of c + (a + b).
Interval hiEnclosure(double C, double A, double B);

/// Index of the first of N variables whose recorded \p Lo (checked first)
/// or \p Hi is outside loEnclosure / hiEnclosure, with \p UpperFailed
/// telling which; N when all replay. Restores the rounding mode.
size_t firstUnreplayedBound(const double *C, const double *A,
                            const double *B, const double *Lo,
                            const double *Hi, size_t N, bool &UpperFailed);

/// Directed enclosure of the dual norm ||V||_q accumulated in ascending
/// index order (the producer's kernel order). \p Q uses the repo's
/// exponent convention: 1 (sum of absolutes), 2 (Euclidean), or -1 for
/// q = infinity (max absolute, exact). Other values are not produced by
/// any certificate and are rejected upstream.
Interval dualNormEnclosure(double Q, const std::vector<double> &V);

} // namespace check
} // namespace deept

#endif // DEEPT_CHECK_INTERVAL_H
