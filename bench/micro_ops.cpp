//===- bench/micro_ops.cpp - Kernel micro benchmarks -----------*- C++ -*-===//
//
// google-benchmark micro benchmarks of the kernels the verifiers spend
// their time in: GEMM, zonotope bound computation, the dot-product
// abstract transformers (Fast and Precise), the softmax transformer and
// noise-symbol reduction. Complements the per-table harnesses.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"
#include "tensor/Kernels.h"
#include "support/Rng.h"
#include "support/Trace.h"
#include "tensor/Matrix.h"
#include "zono/DotProduct.h"
#include "zono/Reduction.h"
#include "zono/Refinement.h"
#include "zono/Softmax.h"
#include "zono/Zonotope.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>
#include <vector>

using namespace deept;
using tensor::Matrix;
using namespace deept::zono;

namespace {

Zonotope makeZonotope(size_t Rows, size_t Cols, size_t Phi, size_t Eps,
                      uint64_t Seed) {
  support::Rng Rng(Seed);
  Zonotope Z = Zonotope::constant(Matrix::randn(Rows, Cols, Rng), 2.0);
  Z.installCoeffs(Matrix::randn(Phi, Rows * Cols, Rng, 0.1),
                  Matrix::randn(Eps, Rows * Cols, Rng, 0.1));
  return Z;
}

void BM_Gemm(benchmark::State &State) {
  size_t N = State.range(0);
  support::Rng Rng(1);
  Matrix A = Matrix::randn(N, N, Rng);
  Matrix B = Matrix::randn(N, N, Rng);
  for (auto _ : State)
    benchmark::DoNotOptimize(tensor::matmul(A, B));
  State.SetComplexityN(N);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Complexity();

// Tiled GEMM across pool sizes: Args are {N, threads}. On a single-core
// host the >1-thread rows measure oversubscription overhead rather than
// speedup; on a multi-core runner they show the scaling curve.
void BM_GemmPool(benchmark::State &State) {
  size_t N = State.range(0);
  size_t Threads = State.range(1);
  size_t Prev = support::ThreadPool::global().threadCount();
  support::ThreadPool::global().setThreadCount(Threads);
  support::Rng Rng(1);
  Matrix A = Matrix::randn(N, N, Rng);
  Matrix B = Matrix::randn(N, N, Rng);
  for (auto _ : State)
    benchmark::DoNotOptimize(tensor::matmul(A, B));
  support::ThreadPool::global().setThreadCount(Prev);
}
BENCHMARK(BM_GemmPool)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8});

void BM_ZonotopeBounds(benchmark::State &State) {
  size_t Eps = State.range(0);
  Zonotope Z = makeZonotope(8, 24, 24, Eps, 2);
  Matrix Lo, Hi;
  for (auto _ : State) {
    Z.bounds(Lo, Hi);
    benchmark::DoNotOptimize(Lo.data());
  }
}
BENCHMARK(BM_ZonotopeBounds)->Arg(128)->Arg(512)->Arg(2048);

void BM_DotProductFast(benchmark::State &State) {
  size_t Eps = State.range(0);
  Zonotope Parent = makeZonotope(8, 12, 12, Eps, 3);
  Zonotope A = Parent.selectColRange(0, 6);
  Zonotope B = Parent.selectColRange(6, 12);
  DotOptions Opts;
  for (auto _ : State)
    benchmark::DoNotOptimize(dotRows(A, B, Opts).numEps());
}
BENCHMARK(BM_DotProductFast)->Arg(128)->Arg(512)->Arg(2048);

// Args are {eps symbols, rows N = M, width D}. The 1000-symbol rows are
// the Combined batch's last-layer shapes: Q . K^T (D = head width 6) and
// Probs . V^T (D = sentence length) at 6 and 10 words.
void BM_DotProductPrecise(benchmark::State &State) {
  size_t Eps = State.range(0), Rows = State.range(1), D = State.range(2);
  Zonotope Parent = makeZonotope(Rows, 2 * D, 12, Eps, 4);
  Zonotope A = Parent.selectColRange(0, D);
  Zonotope B = Parent.selectColRange(D, 2 * D);
  DotOptions Opts;
  Opts.Method = DotMethod::Precise;
  for (auto _ : State)
    benchmark::DoNotOptimize(dotRows(A, B, Opts).numEps());
}
BENCHMARK(BM_DotProductPrecise)
    ->Args({128, 8, 6})
    ->Args({256, 8, 6})
    ->Args({512, 8, 6})
    ->Args({1000, 6, 6})
    ->Args({1000, 10, 6})
    ->Args({1000, 10, 10});

// Coefficient-row parallelism in the dot-product transformer: Args are
// {eps symbols, threads}. Exercises the Fast cascade end to end with
// large symbol counts, the regime the pool targets.
void BM_DotProductFastPool(benchmark::State &State) {
  size_t Eps = State.range(0);
  size_t Threads = State.range(1);
  size_t Prev = support::ThreadPool::global().threadCount();
  support::ThreadPool::global().setThreadCount(Threads);
  Zonotope Parent = makeZonotope(8, 12, 12, Eps, 3);
  Zonotope A = Parent.selectColRange(0, 6);
  Zonotope B = Parent.selectColRange(6, 12);
  DotOptions Opts;
  for (auto _ : State)
    benchmark::DoNotOptimize(dotRows(A, B, Opts).numEps());
  support::ThreadPool::global().setThreadCount(Prev);
}
BENCHMARK(BM_DotProductFastPool)
    ->Args({2048, 1})
    ->Args({2048, 2})
    ->Args({2048, 4})
    ->Args({2048, 8});

void BM_SoftmaxTransformer(benchmark::State &State) {
  size_t Eps = State.range(0);
  Zonotope Scores = makeZonotope(8, 8, 12, Eps, 5);
  for (auto _ : State)
    benchmark::DoNotOptimize(applySoftmax(Scores).numEps());
}
BENCHMARK(BM_SoftmaxTransformer)->Arg(128)->Arg(512);

void BM_NoiseReduction(benchmark::State &State) {
  size_t Eps = State.range(0);
  for (auto _ : State) {
    State.PauseTiming();
    Zonotope Z = makeZonotope(8, 24, 12, Eps, 6);
    State.ResumeTiming();
    reduceEpsSymbols(Z, Eps / 4);
    benchmark::DoNotOptimize(Z.numEps());
  }
}
BENCHMARK(BM_NoiseReduction)->Arg(512)->Arg(2048);

// A block-backed zonotope: a dense leading block of \p DenseEps symbols
// plus \p DiagBlocks Diag tail blocks of one fresh symbol per variable
// each (the shape the elementwise transformers produce).
Zonotope makeBlockZonotope(size_t Rows, size_t Cols, size_t DenseEps,
                           size_t DiagBlocks, uint64_t Seed) {
  Zonotope Z = makeZonotope(Rows, Cols, 12, DenseEps, Seed);
  support::Rng Rng(Seed ^ 0x9e3779b9);
  for (size_t B = 0; B < DiagBlocks; ++B) {
    std::vector<std::pair<size_t, double>> Entries;
    for (size_t V = 0; V < Rows * Cols; ++V)
      Entries.emplace_back(V, Rng.uniform(0.01, 0.2));
    Z.appendFreshEps(Entries);
  }
  return Z;
}

// Blockwise dual-norm accumulation over a Diag-heavy symbol space: the
// structured storage turns each Diag block's contribution into O(vars)
// work instead of an O(syms * vars) dense scan.
void BM_DualNormsDiag(benchmark::State &State) {
  size_t DiagBlocks = State.range(0);
  Zonotope Z = makeBlockZonotope(8, 24, 128, DiagBlocks, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(Z.epsColumnDualNorms(1.0).data());
}
BENCHMARK(BM_DualNormsDiag)->Arg(8)->Arg(32)->Arg(128);

// An exact affine transformer (column scaling) on the same Diag-heavy
// zonotope: Diag blocks update one entry per symbol instead of a row.
void BM_AffineDiagBlock(benchmark::State &State) {
  size_t DiagBlocks = State.range(0);
  Zonotope Z = makeBlockZonotope(8, 24, 128, DiagBlocks, 8);
  support::Rng Rng(9);
  Matrix Gamma = Matrix::randn(1, 24, Rng, 0.5);
  for (auto _ : State)
    benchmark::DoNotOptimize(Z.scaleColumns(Gamma).numEps());
}
BENCHMARK(BM_AffineDiagBlock)->Arg(8)->Arg(32)->Arg(128);

// Whole-plane fused coefficient kernel vs the per-plane loop it batches:
// S symbol planes against one shared N x D panel (the dotRows A-half
// shape). Arg is the plane count S.
void BM_DotPlanesFused(benchmark::State &State) {
  size_t S = State.range(0), N = 8, M = 8, D = 24;
  support::Rng Rng(7);
  Matrix A = Matrix::randn(N, D, Rng);
  Matrix B = Matrix::randn(S * M, D, Rng);
  Matrix C = Matrix::uninit(S, N * M);
  std::vector<double> Pack(tensor::dotPlanesPackDoubles(N, M, D));
  const tensor::Kernels &K = tensor::kernels();
  for (auto _ : State) {
    K.DotPlanesTransposedB(A.data(), 0, N, B.data(), M * D, M, D, S,
                           C.data(), N * M, /*Accumulate=*/false,
                           Pack.data());
    benchmark::DoNotOptimize(C.data());
  }
}
BENCHMARK(BM_DotPlanesFused)->Arg(32)->Arg(128)->Arg(512);

// Deterministic weighted-median selection inside the softmax-sum
// refinement (expected O(E) vs the O(E log E) sort it replaced). Arg is
// the breakpoint count.
void BM_WeightedMedian(benchmark::State &State) {
  size_t N = State.range(0);
  support::Rng Rng(11);
  std::vector<zono::detail::Breakpoint> Points(N);
  for (auto &B : Points)
    B = zono::detail::Breakpoint{Rng.gaussian(), std::exp(Rng.gaussian()),
                                 Rng.uniform() < 0.25};
  std::vector<zono::detail::Breakpoint> Work;
  for (auto _ : State) {
    Work = Points; // selectBreakpoint permutes its input
    benchmark::DoNotOptimize(zono::detail::selectBreakpoint(Work));
  }
}
BENCHMARK(BM_WeightedMedian)->Arg(64)->Arg(512)->Arg(4096);

// The cost a permanently-instrumented hot path pays when tracing is off:
// one relaxed atomic load and a branch per span.
void BM_TraceSpanDisabled(benchmark::State &State) {
  support::Trace::setEnabled(false);
  for (auto _ : State) {
    DEEPT_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State &State) {
  support::Trace::setEnabled(true);
  support::Trace::clear();
  for (auto _ : State) {
    DEEPT_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  support::Trace::setEnabled(false);
  support::Trace::clear();
}
BENCHMARK(BM_TraceSpanEnabled);

// Same dot-product kernel as BM_DotProductFast but with tracing compiled
// in *and disabled* spans on the path; comparing the two quantifies the
// instrumentation overhead on a real kernel (<2% is the budget).
void BM_DotProductFastTracingOff(benchmark::State &State) {
  size_t Eps = State.range(0);
  Zonotope Parent = makeZonotope(8, 12, 12, Eps, 3);
  Zonotope A = Parent.selectColRange(0, 6);
  Zonotope B = Parent.selectColRange(6, 12);
  DotOptions Opts;
  support::Trace::setEnabled(false);
  for (auto _ : State)
    benchmark::DoNotOptimize(dotRows(A, B, Opts).numEps());
}
BENCHMARK(BM_DotProductFastTracingOff)->Arg(128)->Arg(512);

} // namespace

// Expanded BENCHMARK_MAIN so the report's context records the kernel ISA
// it ran under -- bench_compare refuses cross-ISA comparisons.
int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::AddCustomContext(
      "isa", deept::tensor::isaName(deept::tensor::currentIsa()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
