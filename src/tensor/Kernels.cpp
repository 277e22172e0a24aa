//===- tensor/Kernels.cpp - Scalar kernels and ISA dispatch ----*- C++ -*-===//

#include "tensor/Kernels.h"

#include "support/Metrics.h"
#include "tensor/PreciseEpsKernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

using namespace deept;
using namespace deept::tensor;

//===----------------------------------------------------------------------===//
// Scalar kernels (bit-preserve the pre-SIMD open-coded loops)
//===----------------------------------------------------------------------===//

namespace {

bool allZeroRow(const double *P, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (P[I] != 0.0)
      return false;
  return true;
}

// One non-zero A row of the A * B^T kernel: four B rows share each loaded
// A element, ascending-k accumulation per output element (the historical
// dotKernelTransposedB loop). Shared between the per-plane and the
// whole-plane kernels so both produce the same bits.
void scalarDotRowTB(const double *ARow, const double *B, size_t M, size_t D,
                    double *CRow, bool Accumulate) {
  size_t J = 0;
  for (; J + 4 <= M; J += 4) {
    const double *B0 = B + J * D, *B1 = B + (J + 1) * D;
    const double *B2 = B + (J + 2) * D, *B3 = B + (J + 3) * D;
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    for (size_t Kk = 0; Kk < D; ++Kk) {
      double AV = ARow[Kk];
      S0 += AV * B0[Kk];
      S1 += AV * B1[Kk];
      S2 += AV * B2[Kk];
      S3 += AV * B3[Kk];
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
    for (size_t Kk = 0; Kk < D; ++Kk)
      S += ARow[Kk] * BRow[Kk];
    if (Accumulate)
      CRow[J] += S;
    else
      CRow[J] = S;
  }
}

void scalarDotTransposedB(const double *A, size_t N, const double *B,
                          size_t M, size_t D, double *C, bool Accumulate) {
  for (size_t I = 0; I < N; ++I) {
    const double *ARow = A + I * D;
    double *CRow = C + I * M;
    if (allZeroRow(ARow, D)) {
      // Zero row: the output row is exactly zero, so fill it (callers may
      // pass uninitialized C) unless accumulating (+0 is an identity).
      if (!Accumulate)
        std::fill(CRow, CRow + M, 0.0);
      continue;
    }
    scalarDotRowTB(ARow, B, M, D, CRow, Accumulate);
  }
}

double scalarDot(const double *X, const double *Y, size_t N) {
  double S = 0.0;
  for (size_t I = 0; I < N; ++I)
    S += X[I] * Y[I];
  return S;
}

double scalarSum(const double *X, size_t N) {
  double S = 0.0;
  for (size_t I = 0; I < N; ++I)
    S += X[I];
  return S;
}

void scalarAxpy(double A, const double *X, double *Y, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Y[I] += A * X[I];
}

void scalarAxpy4(const double *V, const double *B, double *C0, double *C1,
                 double *C2, double *C3, size_t M) {
  double V0 = V[0], V1 = V[1], V2 = V[2], V3 = V[3];
  for (size_t J = 0; J < M; ++J) {
    double BV = B[J];
    C0[J] += V0 * BV;
    C1[J] += V1 * BV;
    C2[J] += V2 * BV;
    C3[J] += V3 * BV;
  }
}

void scalarSubScale(const double *X, double Mean, const double *G,
                    double *Out, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Out[I] = (X[I] - Mean) * G[I];
}

void scalarAbsRow(const double *X, double *Out, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Out[I] = std::fabs(X[I]);
}

void scalarAccAbs(const double *X, double *Acc, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Acc[I] += std::fabs(X[I]);
}

void scalarAccSq(const double *X, double *Acc, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Acc[I] += X[I] * X[I];
}

void scalarAccMaxAbs(const double *X, double *Acc, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Acc[I] = std::max(Acc[I], std::fabs(X[I]));
}

void scalarAccAbsF32(const double *X, float *Acc, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Acc[I] += static_cast<float>(std::fabs(X[I]));
}

void scalarAccSqF32(const double *X, float *Acc, size_t N) {
  for (size_t I = 0; I < N; ++I) {
    float V = static_cast<float>(X[I]);
    Acc[I] += V * V;
  }
}

void scalarAccMaxAbsF32(const double *X, float *Acc, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Acc[I] = std::max(Acc[I], static_cast<float>(std::fabs(X[I])));
}

void scalarRowSums(const double *X, size_t R, size_t C, double *O) {
  for (size_t Q = 0; Q < R; ++Q)
    O[Q] = scalarSum(X + Q * C, C);
}

void scalarAxpy4K(const double *A0, const double *A1, const double *A2,
                  const double *A3, size_t K0, size_t K1, const double *B,
                  double *C0, double *C1, double *C2, double *C3, size_t M) {
  for (size_t Kk = K0; Kk < K1; ++Kk) {
    double V[4] = {A0[Kk], A1[Kk], A2[Kk], A3[Kk]};
    scalarAxpy4(V, B + Kk * M, C0, C1, C2, C3, M);
  }
}

void scalarCascadeDense(const double *A, size_t S, size_t StrideA,
                        const double *B, size_t M, size_t D, double Q,
                        double *AbsS, double *T, double *Acc) {
  for (size_t Sym = 0; Sym < S; ++Sym) {
    scalarAbsRow(A + Sym * StrideA, AbsS, D);
    bool AllZero = true;
    for (size_t K = 0; K < D && AllZero; ++K)
      AllZero = AbsS[K] == 0.0;
    if (AllZero)
      continue;
    scalarDotTransposedB(AbsS, 1, B, M, D, T, /*Accumulate=*/false);
    if (Q == 1.0)
      scalarAxpy(1.0, T, Acc, M);
    else if (Q == 2.0)
      scalarAccSq(T, Acc, M);
    else
      scalarAccMaxAbs(T, Acc, M);
  }
}

void scalarDotPlanesTransposedB(const double *A, size_t StrideA, size_t N,
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
  for (size_t Sym = 0; Sym < S; ++Sym) {
    const double *PA = A + Sym * StrideA;
    const double *PB = B + Sym * StrideB;
    double *PC = C + Sym * StrideC;
    for (size_t I = 0; I < N; ++I) {
      const double *ARow = PA + I * D;
      double *CRow = PC + I * M;
      if (Flags ? Flags[I] == 0.0 : allZeroRow(ARow, D)) {
        if (!Accumulate)
          std::fill(CRow, CRow + M, 0.0);
        continue;
      }
      scalarDotRowTB(ARow, PB, M, D, CRow, Accumulate);
    }
  }
}

void scalarRowScale(const double *Lambda, double *Rows, size_t R,
                    size_t Stride, size_t N) {
  for (size_t Q = 0; Q < R; ++Q) {
    double *Row = Rows + Q * Stride;
    for (size_t I = 0; I < N; ++I)
      Row[I] *= Lambda[I];
  }
}

/// Eight scalar lanes as four two-double generic vectors (GCC/Clang
/// vector extension, lowered to whatever the baseline target has): every
/// operation is elementwise IEEE arithmetic, so the bits are those of a
/// per-lane loop. Dot here is the serial mul-then-add loop, so the tail
/// step is unfused and there is no lane-parallel prefix (no fma).
struct ScalarLanes {
  typedef double V2 __attribute__((vector_size(16)));
  typedef long long B2 __attribute__((vector_size(16)));
  static constexpr size_t W = detail::PL / 2;
  struct V {
    V2 P[W];
  };
  static constexpr size_t DotLanes = 1;
  template <class F> static V map(F Fn) {
    V R;
#pragma GCC unroll 4
    for (size_t I = 0; I < W; ++I)
      R.P[I] = Fn(I);
    return R;
  }
  static V zero() {
    return map([](size_t) { return V2{}; });
  }
  static V load(const double *Ptr) {
    V R;
    std::memcpy(&R, Ptr, sizeof(R));
    return R;
  }
  static V broadcast(double X) {
    return map([X](size_t) { return V2{X, X}; });
  }
  static void store(double *Ptr, const V &A) {
    std::memcpy(Ptr, &A, sizeof(A));
  }
  static V add(const V &A, const V &B) {
    return map([&](size_t I) { return A.P[I] + B.P[I]; });
  }
  static V sub(const V &A, const V &B) {
    return map([&](size_t I) { return A.P[I] - B.P[I]; });
  }
  static V abs(const V &A) {
    const B2 Mag = ~reinterpret_cast<B2>(V2{-0.0, -0.0});
    return map([&](size_t I) {
      return reinterpret_cast<V2>(reinterpret_cast<B2>(A.P[I]) & Mag);
    });
  }
  static V tail(const V &A, const V &B, const V &C) {
    return map([&](size_t I) { return C.P[I] + A.P[I] * B.P[I]; });
  }
  static unsigned positiveLanes(const V &G) {
    unsigned Bits = 0;
    for (size_t P = 0; P < detail::PL; ++P)
      Bits |= (G.P[P / 2][P % 2] > 0.0 ? 1u : 0u) << P;
    return Bits;
  }
  static V blend(unsigned Bits, const V &A, const V &B) {
    V R = B;
    for (size_t P = 0; P < detail::PL; ++P)
      if (Bits >> P & 1u)
        R.P[P / 2][P % 2] = A.P[P / 2][P % 2];
    return R;
  }
};

void scalarPreciseEpsGroup(const PreciseRows &X, const PreciseRow &Y,
                           size_t D, double *Lo, double *Hi) {
  detail::preciseEpsGroup<ScalarLanes>(X, Y, D, Lo, Hi);
}

constexpr Kernels ScalarKernels = {
    Isa::Scalar,      /*Lanes=*/1,    scalarDotTransposedB,
    scalarDot,        scalarSum,      scalarAxpy,
    scalarAxpy4,      scalarSubScale, scalarAbsRow,
    scalarAccAbs,     scalarAccSq,    scalarAccMaxAbs,
    scalarAccAbsF32,  scalarAccSqF32, scalarAccMaxAbsF32,
    scalarRowSums,    scalarAxpy4K,   scalarCascadeDense,
    scalarDotPlanesTransposedB,       scalarRowScale,
    scalarPreciseEpsGroup,
};

} // namespace

//===----------------------------------------------------------------------===//
// Lane-order emulation (test reference)
//===----------------------------------------------------------------------===//

double tensor::detail::dotLanes(const double *X, const double *Y, size_t N,
                                size_t Lanes) {
  if (Lanes <= 1)
    return scalarDot(X, Y, N);
  std::vector<double> L(Lanes, 0.0);
  size_t NV = N - N % Lanes;
  for (size_t K = 0; K < NV; ++K)
    L[K % Lanes] = std::fma(X[K], Y[K], L[K % Lanes]);
  for (size_t W = Lanes; W > 1; W /= 2)
    for (size_t I = 0; I < W / 2; ++I)
      L[I] += L[I + W / 2];
  double S = L[0];
  for (size_t K = NV; K < N; ++K)
    S = std::fma(X[K], Y[K], S);
  return S;
}

double tensor::detail::sumLanes(const double *X, size_t N, size_t Lanes) {
  if (Lanes <= 1)
    return scalarSum(X, N);
  std::vector<double> L(Lanes, 0.0);
  size_t NV = N - N % Lanes;
  for (size_t K = 0; K < NV; ++K)
    L[K % Lanes] += X[K];
  for (size_t W = Lanes; W > 1; W /= 2)
    for (size_t I = 0; I < W / 2; ++I)
      L[I] += L[I + W / 2];
  double S = L[0];
  for (size_t K = NV; K < N; ++K)
    S += X[K];
  return S;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

#if DEEPT_HAVE_AVX2
namespace deept {
namespace tensor {
namespace detail {
extern const Kernels Avx2Kernels; // KernelsAvx2.cpp
}
} // namespace tensor
} // namespace deept
#endif
#if DEEPT_HAVE_AVX512
namespace deept {
namespace tensor {
namespace detail {
extern const Kernels Avx512Kernels; // KernelsAvx512.cpp
}
} // namespace tensor
} // namespace deept
#endif

namespace {

bool cpuSupports(Isa I) {
#if defined(__x86_64__) || defined(_M_X64)
  switch (I) {
  case Isa::Scalar:
    return true;
  case Isa::Avx2:
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  case Isa::Avx512:
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return I == Isa::Scalar;
#endif
}

const Kernels *tableFor(Isa I) {
  switch (I) {
  case Isa::Scalar:
    return &ScalarKernels;
  case Isa::Avx2:
#if DEEPT_HAVE_AVX2
    return &tensor::detail::Avx2Kernels;
#else
    return nullptr;
#endif
  case Isa::Avx512:
#if DEEPT_HAVE_AVX512
    return &tensor::detail::Avx512Kernels;
#else
    return nullptr;
#endif
  }
  return nullptr;
}

/// The dispatched table. Readers load relaxed (the tables are immutable
/// constants); writers go through setIsa, which must not race a parallel
/// region.
std::atomic<const Kernels *> Current{nullptr};

void publishIsa(const Kernels *T) {
  Current.store(T, std::memory_order_release);
  support::Metrics::global()
      .gauge("kernel.isa")
      .set(static_cast<double>(static_cast<int>(T->Tag)));
  // Pre-register the per-ISA GEMM tile histogram so it appears in metric
  // snapshots even when every GEMM stays under the parallel threshold.
  support::Metrics::global().histogram(std::string("gemm.tile_ms.") +
                                       isaName(T->Tag));
}

/// Resolves the initial ISA: DEEPT_ISA when set (strict; malformed or
/// unavailable values abort with a clear error, matching DEEPT_THREADS),
/// else the widest available.
const Kernels *resolveInitial() {
  Isa I = bestAvailableIsa();
  if (const char *Env = std::getenv("DEEPT_ISA")) {
    std::string Err;
    if (!parseIsa(Env, I, &Err)) {
      std::fprintf(stderr, "error: DEEPT_ISA %s\n", Err.c_str());
      std::exit(2);
    }
    if (!isaAvailable(I)) {
      std::fprintf(stderr,
                   "error: DEEPT_ISA '%s' is not available on this machine "
                   "(best available: %s)\n",
                   isaName(I), isaName(bestAvailableIsa()));
      std::exit(2);
    }
  }
  return tableFor(I);
}

std::once_flag InitOnce;

} // namespace

const Kernels &tensor::kernels() {
  const Kernels *T = Current.load(std::memory_order_acquire);
  if (T)
    return *T;
  std::call_once(InitOnce, [] { publishIsa(resolveInitial()); });
  return *Current.load(std::memory_order_acquire);
}

Isa tensor::currentIsa() { return kernels().Tag; }

const char *tensor::isaName(Isa I) {
  switch (I) {
  case Isa::Scalar:
    return "scalar";
  case Isa::Avx2:
    return "avx2";
  case Isa::Avx512:
    return "avx512";
  }
  return "scalar";
}

bool tensor::parseIsa(const std::string &Text, Isa &Out, std::string *Err) {
  if (Text == "scalar") {
    Out = Isa::Scalar;
    return true;
  }
  if (Text == "avx2") {
    Out = Isa::Avx2;
    return true;
  }
  if (Text == "avx512") {
    Out = Isa::Avx512;
    return true;
  }
  if (Text == "native") {
    Out = bestAvailableIsa();
    return true;
  }
  if (Err)
    *Err = "expects 'scalar', 'avx2', 'avx512' or 'native', got '" + Text +
           "'";
  return false;
}

bool tensor::isaAvailable(Isa I) {
  return tableFor(I) != nullptr && cpuSupports(I);
}

Isa tensor::bestAvailableIsa() {
  if (isaAvailable(Isa::Avx512))
    return Isa::Avx512;
  if (isaAvailable(Isa::Avx2))
    return Isa::Avx2;
  return Isa::Scalar;
}

bool tensor::setIsa(Isa I, std::string *Err) {
  if (!isaAvailable(I)) {
    if (Err)
      *Err = std::string("isa '") + isaName(I) +
             "' is not available on this machine (best available: " +
             isaName(bestAvailableIsa()) + ")";
    return false;
  }
  // Make sure lazy env resolution has happened exactly once before an
  // explicit override, so a later reset cannot resurrect DEEPT_ISA.
  (void)kernels();
  publishIsa(tableFor(I));
  return true;
}
