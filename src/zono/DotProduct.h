//===- zono/DotProduct.h - Dot product abstract transformers ---*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dot product abstract transformers of Section 4.8: the exact affine
/// part of the product of two zonotope vectors plus an interval bound on
/// the quadratic noise-interaction remainder.
///
/// * DeepT-Fast bounds each of the four (phi/eps x phi/eps) interaction
///   blocks with the dual-norm cascade of Eq. 5, costing
///   O(N (E_p + E_inf)) per output variable.
/// * DeepT-Precise refines the eps-eps block with the eps_i * eps_j
///   interval analysis of Eq. 6 (eps^2 in [0,1], eps_i eps_j in [-1,1]),
///   costing O(N E_inf^2).
///
/// The cascade of Eq. 5 is not symmetric in its two operands; DualNormOrder
/// selects which operand's symbols the dual norm is applied to first
/// (Section 6.5 finds "l-infinity terms first" slightly better on average).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_ZONO_DOTPRODUCT_H
#define DEEPT_ZONO_DOTPRODUCT_H

#include "zono/Zonotope.h"

namespace deept {
namespace zono {

/// Which bound is used for the eps-eps quadratic block.
enum class DotMethod {
  Fast,    ///< Eq. 5 dual-norm cascade for all four blocks.
  Precise, ///< Eq. 6 interval analysis for the eps-eps block.
};

/// Which operand the Eq. 5 dual norm is applied to first (the "inner"
/// row-norm side).
enum class DualNormOrder {
  InfFirst, ///< apply the dual norm on l-infinity symbols first (default)
  LpFirst,  ///< apply it on the lp symbols first
};

struct DotOptions {
  DotMethod Method = DotMethod::Fast;
  DualNormOrder Order = DualNormOrder::InfFirst;
};

/// Dot products between all row pairs: Z[i][j] = A.row(i) . B.row(j).
/// A is N x D, B is M x D, the result is N x M. A and B must share their
/// noise-symbol spaces (same input ancestry); eps spaces are aligned by
/// padding. Each output variable receives one fresh eps symbol absorbing
/// the quadratic remainder.
Zonotope dotRows(const Zonotope &A, const Zonotope &B,
                 const DotOptions &Opts = DotOptions());

/// Elementwise multiplication z_v = a_v * b_v of two equally shaped
/// zonotopes (the Section 4.9 multiplication transformer).
Zonotope mulElementwise(const Zonotope &A, const Zonotope &B,
                        const DotOptions &Opts = DotOptions());

namespace detail {

/// The Eq. 6 eps-eps interval bound of the Precise method: for every
/// pair (i, j) of rows of the N x D and M x D views whose aligned eps
/// coefficients are \p EA and \p EB, accumulates
///   sum_s (v_s . w_s) * [0, 1]  +  sum_{s != t} (v_s . w_t) * [-1, 1]
/// over the symbols active on row i (s) and row j (t), in ascending s,
/// then ascending t, into the N x M matrices (Lo, Hi). Runs the pairs in
/// tensor::Kernels::PreciseEpsGroup lane groups; the bits equal the
/// per-pair kernels().Dot loop and do not depend on the thread count.
void preciseEpsBound(const Matrix &EA, size_t N, const Matrix &EB, size_t M,
                     size_t D, Matrix &Lo, Matrix &Hi);

} // namespace detail

} // namespace zono
} // namespace deept

#endif // DEEPT_ZONO_DOTPRODUCT_H
