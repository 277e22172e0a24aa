//===- tensor/Kernels.h - Runtime-dispatched SIMD kernels ------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMD execution layer: a small vtable of pointer-level kernels with
/// scalar, AVX2+FMA and AVX-512 implementations, selected once at runtime
/// from CPU features (overridable via the DEEPT_ISA environment variable
/// or the --isa flag). The zonotope transformers, the GEMM variants and
/// the dual-norm reductions dispatch through kernels() instead of open-
/// coding their inner loops.
///
/// Determinism contract (per ISA): every kernel is a pure function of its
/// inputs -- no thread-count or scheduling dependence -- so results stay
/// bit-identical at any thread count *within* an ISA. Different ISAs may
/// differ by ulps in the reduction kernels (Dot / Sum / DotTransposedB /
/// DotPlanesTransposedB / PreciseEpsGroup),
/// which accumulate in L lanes (scalar L=1, AVX2 L=4, AVX-512 L=8):
/// element k feeds lane k % L via FMA, lanes reduce pairwise in the fixed
/// order detail::dotLanes documents, and the tail (k >= N - N % L)
/// FMA-accumulates serially onto the lane total. detail::dotLanes /
/// sumLanes reproduce this order exactly in scalar code, so tests can
/// assert 0-ULP equality against each SIMD implementation. The remaining
/// kernels are elementwise (one fixed rounding sequence per element, no
/// reassociation) and produce identical bits on every ISA.
///
/// The F32 accumulator variants (AccAbsF32 / AccSqF32 / AccMaxAbsF32)
/// back the sound reduced-precision mode: they accumulate into float, and
/// the caller converts back with an upward correction covering every
/// rounding the narrow accumulation could have committed (see DESIGN.md
/// "SIMD execution layer" for the soundness argument).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_TENSOR_KERNELS_H
#define DEEPT_TENSOR_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace deept {
namespace tensor {

/// Instruction sets the dispatcher can select. Numeric order is
/// preference order (higher is wider).
enum class Isa : int {
  Scalar = 0, ///< Portable C++; bit-preserves the pre-SIMD kernels.
  Avx2 = 1,   ///< AVX2 + FMA, 4 doubles per vector.
  Avx512 = 2, ///< AVX-512 F/DQ/VL, 8 doubles per vector.
};

/// Output pairs per PreciseEpsGroup call on every table: one AVX-512
/// vector, two AVX2 vectors, eight scalar accumulators. Fixed across ISAs
/// so the grouping of pairs does not depend on the dispatched table.
constexpr size_t PreciseGroupLanes = 8;

/// The A side of a PreciseEpsGroup call: Lanes consecutive rows of a
/// coefficient matrix, one per lane. Lane p walks its own ascending
/// symbol list LaneSym[p] (LaneNum[p] ids); its slice of symbol s starts
/// at Base + s * Stride + p * D. Lanes past Lanes, and lanes whose list is
/// exhausted, see all-zero slices.
struct PreciseRows {
  const double *Base = nullptr;
  size_t Stride = 0;
  size_t Lanes = 0;
  const size_t *LaneSym[PreciseGroupLanes] = {};
  size_t LaneNum[PreciseGroupLanes] = {};
};

/// The B side of a PreciseEpsGroup call: one row, shared by every lane,
/// packed contiguously: the slice of list entry t (symbol id Sym[t],
/// ascending) is Slices[t * D .. t * D + D).
struct PreciseRow {
  const double *Slices = nullptr;
  const size_t *Sym = nullptr;
  size_t NumSyms = 0;
};

/// The kernel vtable. All pointers are always non-null; an unsupported
/// ISA simply cannot be selected.
struct Kernels {
  Isa Tag = Isa::Scalar;
  /// Reduction lane count L of Dot / Sum / DotTransposedB (1, 4 or 8).
  size_t Lanes = 1;

  /// C[i*M + j] (+)= sum_k A[i*D + k] * B[j*D + k]: the pointer-level
  /// A * B^T row kernel. Rows of A that are entirely zero short-circuit:
  /// the output row is zero-filled when not accumulating (so C may start
  /// uninitialized) and left untouched when accumulating. The contraction
  /// is lane-ordered per output element.
  void (*DotTransposedB)(const double *A, size_t N, const double *B,
                         size_t M, size_t D, double *C, bool Accumulate);

  /// Lane-ordered dot product of two length-N rows.
  double (*Dot)(const double *X, const double *Y, size_t N);

  /// Lane-ordered sum of a length-N row (plain adds, no FMA).
  double (*Sum)(const double *X, size_t N);

  /// Y[i] += A * X[i]. Elementwise (mul then add per element, matching
  /// the scalar kernel exactly on every ISA).
  void (*Axpy)(double A, const double *X, double *Y, size_t N);

  /// C{r}[j] += V[r] * B[j] for r in 0..3: the register-blocked GEMM
  /// inner loop (four output rows share each loaded B element).
  void (*Axpy4)(const double *V, const double *B, double *C0, double *C1,
                double *C2, double *C3, size_t M);

  /// Out[i] = (X[i] - Mean) * G[i] (the fused layer-norm row kernel).
  void (*SubScale)(const double *X, double Mean, const double *G,
                   double *Out, size_t N);

  /// Out[i] = |X[i]|.
  void (*AbsRow)(const double *X, double *Out, size_t N);

  /// Acc[i] += |X[i]|  /  Acc[i] += X[i]*X[i]  /
  /// Acc[i] = max(Acc[i], |X[i]|): the dual-norm accumulators.
  void (*AccAbs)(const double *X, double *Acc, size_t N);
  void (*AccSq)(const double *X, double *Acc, size_t N);
  void (*AccMaxAbs)(const double *X, double *Acc, size_t N);

  /// Float-accumulator variants for the sound reduced-precision mode.
  void (*AccAbsF32)(const double *X, float *Acc, size_t N);
  void (*AccSqF32)(const double *X, float *Acc, size_t N);
  void (*AccMaxAbsF32)(const double *X, float *Acc, size_t N);

  /// O[q] = Sum(X + q * C, C) for q in 0..R-1: one dispatch for a whole
  /// block of short rows. Bit-identical to calling Sum per row -- the
  /// fusion only removes per-row indirect-call overhead (the row sums of
  /// softmax denominators are ~sentence-length, where the call costs as
  /// much as the add loop).
  void (*RowSums)(const double *X, size_t R, size_t C, double *O);

  /// C{r}[j] += A{r}[k] * B[k * M + j] for k in [K0, K1) ascending: the
  /// K-fused GEMM inner loop. Bit-identical to calling Axpy4 once per k
  /// (elementwise mul-then-add per element, no reassociation); one
  /// dispatch per register block instead of one per k.
  void (*Axpy4K)(const double *A0, const double *A1, const double *A2,
                 const double *A3, size_t K0, size_t K1, const double *B,
                 double *C0, double *C1, double *C2, double *C3, size_t M);

  /// The fused Eq. 5 cascade over one dense block and one outer row: for
  /// s in 0..S-1, with slice A + s * StrideA (length D),
  ///   AbsS[k] = |slice[k]|;               (AbsRow)
  ///   skip s when AbsS is all zero;
  ///   T[j] = lane-ordered AbsS . B[j];    (1-row DotTransposedB)
  ///   Q == 1: Acc[j] += T[j]  /  Q == 2: Acc[j] += T[j]^2  /
  ///   else:   Acc[j] = max(Acc[j], T[j]).
  /// Bit-identical to the unfused AbsRow / DotTransposedB / AccSq /
  /// AccMaxAbs / Axpy(1.0) sequence per symbol; fusing removes ~4
  /// indirect dispatches per (row, symbol) pair, the dominant call-count
  /// in the fast dot-product bound. AbsS (D) and T (M) are caller scratch.
  void (*CascadeDense)(const double *A, size_t S, size_t StrideA,
                       const double *B, size_t M, size_t D, double Q,
                       double *AbsS, double *T, double *Acc);

  /// Whole-plane fused coefficient kernel (the dotRows symbol loop): for
  /// plane s in 0..S-1,
  ///   C + s * StrideC  (+)=  PA(s) * PB(s)^T
  /// where PA(s) is the N x D matrix at A + s * StrideA and PB(s) the
  /// M x D matrix at B + s * StrideB. A stride of 0 marks that panel as
  /// shared by every plane: the kernel copies it once into \p Pack
  /// (caller scratch of dotPlanesPackDoubles() doubles, 64-byte aligned
  /// internally) and streams all planes through the cache-resident copy;
  /// a shared A panel additionally hoists its per-row zero-skip flags so
  /// they are scanned once instead of once per plane. Packing is a bit
  /// copy and the per-element contraction is exactly DotTransposedB's
  /// lane order, so the result is bit-identical to S individual
  /// DotTransposedB calls (including the zero-row fill/skip contract).
  /// Pack may be null, in which case panels are streamed unpacked (still
  /// bit-identical, just slower).
  void (*DotPlanesTransposedB)(const double *A, size_t StrideA, size_t N,
                               const double *B, size_t StrideB, size_t M,
                               size_t D, size_t S, double *C, size_t StrideC,
                               bool Accumulate, double *Pack);

  /// Row[i] *= Lambda[i] for each of R rows at Rows + r * Stride: the
  /// broadcast row-scale behind Zonotope::scalePerVarInPlace. Elementwise
  /// (one multiply per element), so bit-identical on every ISA.
  void (*RowScale)(const double *Lambda, double *Rows, size_t R,
                   size_t Stride, size_t N);

  /// The Eq. 6 eps-eps bound (paper Section 4.8) of one lane group: up
  /// to PreciseGroupLanes output pairs (row p of \p X, row \p Y) run side
  /// by side, pair p in lane p. Starting from Lo = Hi = 0, each lane
  /// walks its own x symbols s, and for each the y symbols t, in list
  /// order:
  ///   G = Dot(x_s, y_t, D)                in this table's lane order
  ///   s == t: G > 0 ? Hi += G : Lo += G   (eps_s^2 in [0, 1])
  ///   else:   Hi += |G|, Lo -= |G|        (eps_s eps_t in [-1, 1])
  /// so each lane reproduces the per-pair kernels().Dot loop over the same
  /// lists bit-for-bit -- provided the y slices are finite: lanes step in
  /// lockstep, and a lane whose list ran out sees G = +0, which leaves
  /// Hi (>= +0) and Lo (never -0) unchanged. Lo and Hi receive
  /// PreciseGroupLanes doubles each.
  void (*PreciseEpsGroup)(const PreciseRows &X, const PreciseRow &Y,
                          size_t D, double *Lo, double *Hi);
};

/// Scratch doubles a DotPlanesTransposedB call needs for its packed
/// shared panel: the shared-A case stores N hoisted zero-row flags ahead
/// of the N x D panel, the shared-B case just the M x D panel; both pad 8
/// doubles so the kernel can 64-byte align the buffer. Covers either
/// sharing direction, so one buffer serves both halves of a plane run.
inline size_t dotPlanesPackDoubles(size_t N, size_t M, size_t D) {
  size_t APanel = N * D + N, BPanel = M * D;
  return (APanel > BPanel ? APanel : BPanel) + 8;
}

/// The currently dispatched kernel table. The first call resolves the
/// ISA: DEEPT_ISA when set (malformed or unavailable values abort with a
/// clear error, like DEEPT_THREADS), else the widest ISA this binary was
/// compiled with that the CPU supports.
const Kernels &kernels();

/// The Isa tag of kernels().
Isa currentIsa();

/// Canonical lower-case name ("scalar", "avx2", "avx512").
const char *isaName(Isa I);

/// Strict parse of an ISA name: "scalar", "avx2", "avx512" or "native"
/// (the widest available). Returns false and fills \p Err for anything
/// else -- the --isa flag and DEEPT_ISA go through this so typos fail
/// loudly instead of silently running scalar.
bool parseIsa(const std::string &Text, Isa &Out, std::string *Err = nullptr);

/// True when \p I was compiled into this binary and the CPU supports it.
bool isaAvailable(Isa I);

/// The widest available ISA (what "native" resolves to).
Isa bestAvailableIsa();

/// Switches the dispatched table to \p I. Fails (returning false and
/// filling \p Err) when the ISA is not available; on success updates the
/// kernel.isa gauge. Must not be called from inside a parallel region.
bool setIsa(Isa I, std::string *Err = nullptr);

namespace detail {

/// 64-byte aligns a caller-provided DotPlanesTransposedB pack buffer
/// (dotPlanesPackDoubles reserves the 8-double slack this may consume).
inline double *alignPack64(double *P) {
  return reinterpret_cast<double *>(
      (reinterpret_cast<std::uintptr_t>(P) + 63) & ~std::uintptr_t(63));
}

/// Scalar emulation of the lane-ordered FMA dot product the SIMD kernels
/// implement: element k accumulates into lane k % Lanes via fma; lanes
/// then reduce pairwise (lane i adds lane i + W/2, halving W until one
/// lane remains -- exactly the vector-extract-and-add cascade of the
/// AVX2/AVX-512 horizontal sums); the tail FMA-accumulates serially.
/// Lanes == 1 reproduces the scalar kernel (plain mul + add, no FMA).
double dotLanes(const double *X, const double *Y, size_t N, size_t Lanes);

/// Lane-ordered plain-add sum with the same reduction order.
double sumLanes(const double *X, size_t N, size_t Lanes);

/// Upward-corrected lift of a float accumulator holding the sum of
/// \p Terms nonnegative terms back to double. Every error the narrow
/// accumulation can commit is covered:
///  - each double->float conversion and each float add rounds to nearest
///    with relative error <= 2^-24, so after Terms adds the computed sum
///    is >= true / (1 + Terms * 2^-23); the (Terms + 8) * 2^-23 blowup
///    strictly dominates that (and the +8 covers the lane-reassociation
///    slack of the SIMD accumulators);
///  - a term too small for a float subnormal (< ~7e-46) flushes to zero;
///    the absolute Terms * 1e-38 tail over-covers every such loss;
///  - overflow saturates to +inf, which is trivially an upper bound.
/// The result therefore upper-bounds both the true sum and what the f64
/// kernels would have computed, which is what makes the f32 interval
/// enclose the f64 interval (DESIGN.md "SIMD execution layer").
inline double f32SumUpper(float Acc, size_t Terms) {
  return static_cast<double>(Acc) *
             (1.0 + static_cast<double>(Terms + 8) * 0x1p-23) +
         static_cast<double>(Terms) * 1e-38;
}

/// Upward-corrected lift of a float running max: only the per-element
/// double->float conversion rounds (<= 2^-24 relative), plus the
/// subnormal-flush absolute tail.
inline double f32MaxUpper(float Acc) {
  return static_cast<double>(Acc) * (1.0 + 0x1p-23) + 1e-38;
}

} // namespace detail

} // namespace tensor
} // namespace deept

#endif // DEEPT_TENSOR_KERNELS_H
