//===- verify/DeepT.cpp ---------------------------------------*- C++ -*-===//

#include "verify/DeepT.h"

#include "support/Error.h"
#include "support/Fault.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "verify/Certificate.h"
#include "verify/Profile.h"
#include "zono/Elementwise.h"
#include "zono/Provenance.h"
#include "zono/Reduction.h"
#include "zono/Refinement.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>

using namespace deept;
using namespace deept::verify;
using namespace deept::zono;
using tensor::Matrix;

namespace {

/// The abstract layer normalisation. The paper's default (Section 3.1)
/// subtracts the row mean, scales and shifts -- all exact affine steps.
/// The standard variant (Section 6.6) additionally divides by the
/// standard deviation, which needs the multiplication, sqrt and
/// reciprocal transformers.
Zonotope abstractLayerNorm(const Zonotope &V, const Matrix &Gamma,
                           const Matrix &Beta, bool StdDiv, double LnEps,
                           const DotOptions &Mul, double ElementwiseEps) {
  if (StdDiv) {
    Zonotope Centered = V.subRowMean();
    Zonotope Sq = mulElementwise(Centered, Centered, Mul);
    Zonotope Var = Sq.rowMeans().addConst(Matrix(V.rows(), 1, LnEps));
    Zonotope InvStd = applyRecip(applySqrt(Var), ElementwiseEps);
    Centered = mulElementwise(Centered, InvStd.broadcastColTo(V.cols()), Mul);
    return Centered.scaleColumns(Gamma).addRowBroadcast(Beta);
  }
  // Paper-default path: (x - mean) * gamma fused into one coefficient
  // pass (bit-identical to subRowMean().scaleColumns()).
  return V.subRowMeanScale(Gamma).addRowBroadcast(Beta);
}

} // namespace

PropagationStats PropagationStats::fromRegistry() {
  const support::Metrics &M = support::Metrics::global();
  PropagationStats S;
  S.PeakEpsSymbols = static_cast<size_t>(
      M.gaugeValue("verify.propagate.peak_eps_symbols"));
  S.SymbolsTightened = static_cast<size_t>(
      M.counterValue("verify.propagate.symbols_tightened"));
  S.PeakCoeffBytes = static_cast<size_t>(
      M.gaugeValue("verify.propagate.peak_coeff_bytes"));
  return S;
}

Zonotope DeepTVerifier::propagate(const Zonotope &InputEmb,
                                  PropagationStats *Stats) const {
  support::TraceSpan PropagateSpan("deept.propagate");
  support::Metrics &MR = support::Metrics::global();
  static support::Counter &Calls = MR.counter("verify.propagate.calls");
  Calls.add(1);

  const nn::TransformerConfig &C = Model.Config;
  assert(InputEmb.cols() == C.EmbedDim && "embedding width mismatch");
  size_t A = C.NumHeads;
  size_t Dk = C.headDim();
  double Scale = 1.0 / std::sqrt(static_cast<double>(Dk));

  PropagationStats Local;
  size_t LayerPeakEps = 0;
  // Track doubles as the soundness checkpoint: it sees every major
  // intermediate zonotope, so a corrupted abstraction is caught at the
  // first checkpoint after the corruption and surfaces as a structured
  // UnsoundAbstraction error instead of flowing into a verdict.
  static support::Histogram &EpsBlocks = MR.histogram("zono.eps_blocks");
  static support::Histogram &DiagFrac = MR.histogram("zono.diag_frac");
  static support::Gauge &CoeffBytes = MR.gauge("zono.coeff_bytes");
  // Checkpoint context for the precision profile / flight recorder; the
  // layer and head loops below keep these current.
  int CurLayer = -1;
  int CurHead = -1;
  auto LastCp = std::chrono::steady_clock::now();
  auto Track = [&](const Zonotope &Z, const char *Site) {
    Local.PeakEpsSymbols = std::max(Local.PeakEpsSymbols, Z.numEps());
    Local.PeakCoeffBytes = std::max(Local.PeakCoeffBytes, Z.coeffBytes());
    LayerPeakEps = std::max(LayerPeakEps, Z.numEps());
    // Block-structure telemetry: how fragmented the eps storage is, how
    // much of it stays structured, and the actual coefficient footprint.
    EpsBlocks.observe(static_cast<double>(Z.epsBlockCount()));
    DiagFrac.observe(Z.epsStructuredFraction());
    CoeffBytes.recordMax(static_cast<double>(Z.coeffBytes()));
    if (Config.Recorder)
      Config.Recorder->record("checkpoint", Site,
                              static_cast<double>(Z.numEps()),
                              static_cast<double>(Z.epsBlockCount()),
                              static_cast<double>(Z.coeffBytes()));
    if (Config.Profile) {
      auto Now = std::chrono::steady_clock::now();
      double SinceMs =
          std::chrono::duration<double, std::milli>(Now - LastCp).count();
      LastCp = Now;
      profileCheckpoint(*Config.Profile, Z, Site, CurLayer, CurHead,
                        SinceMs);
    }
    if (Config.Certificate)
      Config.Certificate->recordCheckpoint(Z, Site, CurLayer, CurHead);
    if (Config.ValidateAbstractions) {
      std::string Why;
      if (!Z.validate(&Why))
        throw support::Error(support::ErrorCode::UnsoundAbstraction, Site,
                             Why);
    }
  };

  SoftmaxOptions SoftOpts;
  SoftOpts.ElementwiseEps = Config.ElementwiseEps;
  SoftOpts.StableRewrite = Config.StableSoftmax;

  // One refinement scratch for the whole propagation: the per-head refine
  // calls (layers x heads of them) then reuse the breakpoint and
  // constraint buffers at their high-water capacity.
  RefinementScratch RefineScratch;

  Zonotope X = InputEmb;
  // Fault site for the robustness drills: injects a NaN/Inf into the
  // input center so the soundness guards must turn it into a structured
  // error (never a certificate).
  DEEPT_FAULT_CORRUPT("verify.propagate", X.center().data(),
                      X.center().size());
  for (size_t L = 0; L < Model.Layers.size(); ++L) {
    if (Config.CancelCheck)
      Config.CancelCheck();
    support::TraceSpan LayerSpan("deept.layer", L);
    double EpsCreatedBefore = MR.counterValue("zono.eps_symbols.created");
    LayerPeakEps = 0;
    CurLayer = static_cast<int>(L);
    const nn::TransformerLayer &Layer = Model.Layers[L];
    bool LastLayer = L + 1 == Model.Layers.size();

    DotOptions Dot;
    Dot.Order = Config.Order;
    Dot.Method = Config.Method;
    if (Config.PreciseLastLayerOnly)
      Dot.Method = LastLayer ? DotMethod::Precise : DotMethod::Fast;
    SoftOpts.Mul = Dot;

    // Noise symbol reduction at the layer input (Section 5.1), where a
    // single tensor is live, so re-indexing the eps space is safe.
    {
      DEEPT_TRACE_SPAN("deept.noise_reduction");
      ProvenanceGroup PG(L, "noise_reduction");
      size_t Budget = Config.NoiseReductionBudget;
      if (LastLayer && Config.NoiseReductionBudgetLastLayer > 0)
        Budget = Config.NoiseReductionBudgetLastLayer;
      if (Budget > 0)
        reduceEpsSymbols(X, Budget);
    }
    Track(X, "verify.layer_input");

    // Multi-head self-attention (Eq. 1).
    Zonotope Q, K, V;
    {
      DEEPT_TRACE_SPAN("deept.attention.qkv");
      Q = X.matmulRightConst(Layer.Wq).addRowBroadcast(Layer.Bq);
      K = X.matmulRightConst(Layer.Wk).addRowBroadcast(Layer.Bk);
      V = X.matmulRightConst(Layer.Wv).addRowBroadcast(Layer.Bv);
    }

    std::vector<Zonotope> Heads;
    for (size_t H = 0; H < A; ++H) {
      DEEPT_TRACE_SPAN("deept.attention.head");
      CurHead = static_cast<int>(H);
      Zonotope Vh = V.selectColRange(H * Dk, (H + 1) * Dk);
      Zonotope Scores;
      {
        DEEPT_TRACE_SPAN("deept.attention.scores");
        ProvenanceGroup PG(L, "attention.scores");
        // The head's Q and K slices (and the dense eps copies the Precise
        // dot caches on them) die here, before the softmax transient --
        // the peak of a job's heap.
        Scores = dotRows(Q.selectColRange(H * Dk, (H + 1) * Dk),
                         K.selectColRange(H * Dk, (H + 1) * Dk), Dot)
                     .scale(Scale);
      }
      Track(Scores, "verify.attention.scores");
      Zonotope Probs;
      {
        DEEPT_TRACE_SPAN("deept.attention.softmax");
        ProvenanceGroup PG(L, "softmax");
        Probs = applySoftmax(Scores, SoftOpts);
      }
      if (Config.SoftmaxSumRefinement) {
        DEEPT_TRACE_SPAN("deept.attention.refine");
        ProvenanceGroup PG(L, "softmax");
        // Symbol-range rewrites must reach every tensor still in use --
        // including the already-sliced value tensor Vh that the
        // attention output multiplies Probs with.
        std::vector<Zonotope *> CoLive = {&X, &Q, &K, &V, &Vh};
        for (Zonotope &Prev : Heads)
          CoLive.push_back(&Prev);
        RefinementStats RS = refineSoftmaxSum(Probs, CoLive,
                                              RefinementOptions(),
                                              &RefineScratch);
        Local.SymbolsTightened += RS.SymbolsTightened;
      }
      // Attention output: Probs (N x N) times Vh (N x dk); rows of Probs
      // dotted with columns of Vh, i.e. rows of Vh transposed.
      {
        DEEPT_TRACE_SPAN("deept.attention.output");
        ProvenanceGroup PG(L, "attention.output");
        Heads.push_back(dotRows(Probs, Vh.transposedView(), Dot));
      }
      Track(Heads.back(), "verify.attention.output");
    }
    CurHead = -1;
    Zonotope X1;
    {
      DEEPT_TRACE_SPAN("deept.attention.proj_norm");
      ProvenanceGroup PG(L, "layer_norm");
      Zonotope Concat = Zonotope::concatCols(Heads);
      Zonotope Z =
          Concat.matmulRightConst(Layer.Wo).addRowBroadcast(Layer.Bo);
      Zonotope V1 = X.add(Z); // residual connection
      X1 = abstractLayerNorm(V1, Layer.Ln1Gamma, Layer.Ln1Beta,
                             C.LayerNormStdDiv, C.LnEps, Dot,
                             Config.ElementwiseEps);
    }

    // Feed-forward block with its residual connection.
    {
      DEEPT_TRACE_SPAN("deept.ffn");
      ProvenanceGroup PG(L, "ffn");
      Zonotope Hid = applyRelu(
          X1.matmulRightConst(Layer.W1).addRowBroadcast(Layer.B1));
      Zonotope F = Hid.matmulRightConst(Layer.W2).addRowBroadcast(Layer.B2);
      Zonotope V2 = X1.add(F);
      X = abstractLayerNorm(V2, Layer.Ln2Gamma, Layer.Ln2Beta,
                            C.LayerNormStdDiv, C.LnEps, Dot,
                            Config.ElementwiseEps);
    }
    Track(X, "verify.layer_output");
    MR.histogram("verify.layer.eps_created")
        .observe(MR.counterValue("zono.eps_symbols.created") -
                 EpsCreatedBefore);
    MR.histogram("verify.layer.peak_eps_symbols")
        .observe(static_cast<double>(LayerPeakEps));
  }

  // Pooling (first output embedding), tanh layer, binary classifier.
  CurLayer = -1;
  Zonotope Logits;
  {
    DEEPT_TRACE_SPAN("deept.pooler");
    ProvenanceGroup PG("pooler");
    Zonotope Pooled = X.selectRow(0);
    Zonotope T = applyTanh(
        Pooled.matmulRightConst(Model.PoolW).addRowBroadcast(Model.PoolB));
    Logits = T.matmulRightConst(Model.ClsW).addRowBroadcast(Model.ClsB);
  }
  Track(Logits, "verify.logits");

  // Mirror the per-run stats into the registry so they survive every
  // entry point (certifyMargin and friends discard the out-param).
  MR.gauge("verify.propagate.peak_eps_symbols")
      .recordMax(static_cast<double>(Local.PeakEpsSymbols));
  MR.gauge("verify.propagate.peak_coeff_bytes")
      .recordMax(static_cast<double>(Local.PeakCoeffBytes));
  MR.counter("verify.propagate.symbols_tightened")
      .add(static_cast<double>(Local.SymbolsTightened));
  if (Stats)
    *Stats = Local;
  return Logits;
}

double DeepTVerifier::certifyMargin(const Zonotope &InputEmb,
                                    size_t TrueClass) const {
  if (Config.Precision == support::FpPrecision::F64)
    return certifyMarginImpl(InputEmb, TrueClass);
  // F32 mode: run the propagation with single-precision dual-norm
  // accumulation (soundly widened, so the margin can only shrink). A
  // non-positive margin may be the widening rather than a real
  // falsification, so escalate that query back to full precision -- the
  // returned verdict is then always F64-backed on the falsify side,
  // while certified verdicts carry the f32 upper-bound guarantee.
  auto &MR = support::Metrics::global();
  MR.counter("prec.f32_jobs").add(1.0);
  double M32;
  {
    support::FpScope Scope(support::FpPrecision::F32);
    M32 = certifyMarginImpl(InputEmb, TrueClass);
  }
  if (M32 > 0.0)
    return M32;
  MR.counter("prec.escalations").add(1.0);
  return certifyMarginImpl(InputEmb, TrueClass);
}

double DeepTVerifier::certifyMarginImpl(const Zonotope &InputEmb,
                                        size_t TrueClass) const {
  assert(TrueClass < 2 && "binary classification");
  // With a profile attached, a provenance session tags every fresh eps
  // symbol created during this propagation with its originating
  // layer/op; the session must outlive the margin construction below so
  // the final symbol space can be attributed.
  std::optional<ProvenanceSession> Session;
  auto T0 = std::chrono::steady_clock::now();
  if (Config.Profile) {
    Config.Profile->resetMeasurements();
    Session.emplace();
  }
  if (Config.Certificate) {
    Config.Certificate->beginRun(TrueClass, Model.Layers.size(),
                                 Model.Config.EmbedDim,
                                 Model.Config.NumHeads);
    Config.Certificate->recordInput(InputEmb);
  }
  Zonotope Logits = propagate(InputEmb);
  // The margin is an affine combination of the logit variables; computing
  // it inside the domain keeps the shared-noise cancellation (an interval
  // subtraction would be much looser).
  // Built as a right-multiply by the +/-1 column so the eps blocks stay
  // in scatter form (mapLinear would densify and allocate per symbol
  // row); the ascending-k accumulation performs the same subtraction, so
  // the margin is bit-identical.
  Matrix MarginW(2, 1);
  MarginW.at(TrueClass, 0) = 1.0;
  MarginW.at(1 - TrueClass, 0) = -1.0;
  Zonotope Margin = Logits.matmulRightConst(MarginW);
  Matrix Lo, Hi;
  Margin.bounds(Lo, Hi);
  // Belt-and-braces: even with ValidateAbstractions off, a NaN margin
  // must become a structured error, not a (vacuously false) comparison.
  if (std::isnan(Lo.at(0, 0)))
    throw support::Error(support::ErrorCode::UnsoundAbstraction,
                         "verify.margin", "margin lower bound is NaN");
  if (Config.Certificate)
    Config.Certificate->recordMargin(Margin, TrueClass, Lo.at(0, 0),
                                     Hi.at(0, 0));
  if (Config.Profile) {
    profileMargin(*Config.Profile, Margin, Session->provenance(),
                  Lo.at(0, 0), Hi.at(0, 0));
    Config.Profile->TotalMs = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - T0)
                                  .count();
  }
  return Lo.at(0, 0);
}

bool DeepTVerifier::certifyLpBall(const std::vector<size_t> &Tokens,
                                  size_t Word, double P, double Radius,
                                  size_t TrueClass) const {
  Matrix X = Model.embed(Tokens);
  Zonotope In = Zonotope::lpBallOnRow(X, Word, P, Radius);
  return certifyMargin(In, TrueClass) > 0.0;
}

Zonotope DeepTVerifier::synonymBox(const data::SyntheticCorpus &Corpus,
                                   const data::Sentence &S) const {
  Matrix X = Model.embed(S.Tokens);
  Matrix Lo = X, Hi = X;
  for (size_t I = 0; I < S.Tokens.size(); ++I) {
    for (size_t Syn : Corpus.synonymsOf(S.Tokens[I])) {
      for (size_t C = 0; C < X.cols(); ++C) {
        double V = Corpus.embeddings().at(Syn, C) + Model.Positional.at(I, C);
        Lo.at(I, C) = std::min(Lo.at(I, C), V);
        Hi.at(I, C) = std::max(Hi.at(I, C), V);
      }
    }
  }
  return Zonotope::box(Lo, Hi);
}

bool DeepTVerifier::certifySynonymBox(const data::SyntheticCorpus &Corpus,
                                      const data::Sentence &S,
                                      size_t TrueClass) const {
  return certifyMargin(synonymBox(Corpus, S), TrueClass) > 0.0;
}
