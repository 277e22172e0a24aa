//===- tests/certificate_test.cpp - Proof certificate tests ----*- C++ -*-===//
//
// The certificate layer end to end: the producer (verify/Certificate)
// records runs that the independent checker (src/check) accepts; every
// tampered variant of the corrupted-certificate corpus is rejected with
// the right taxonomy code (StoreCorrupt for mangled artifacts,
// UnsoundAbstraction for derivations that do not replay) -- in the style
// of serialize_test.cpp's corrupted-model corpus. Also covers payload
// bit-identity across thread counts, the 1-ULP negative-path oracle, the
// scheduler's cert-dir artifacts, and the cert.write fault drill.
//
//===----------------------------------------------------------------------===//

#include "check/CertCheck.h"
#include "check/Interval.h"
#include "data/SyntheticCorpus.h"
#include "nn/FeedForwardNet.h"
#include "nn/Transformer.h"
#include "support/Error.h"
#include "support/Fault.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Trace.h"
#include "verify/Certificate.h"
#include "verify/DeepT.h"
#include "verify/FeedForwardVerifier.h"
#include "verify/Scheduler.h"
#include "zono/Zonotope.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace deept;
using support::ErrorCode;
using support::ThreadPool;
using tensor::Matrix;
using verify::CertificateBuilder;
using verify::CertificateData;
using verify::CertMargin;

namespace {

/// Restores the pool's thread count on scope exit.
class ScopedThreads {
public:
  explicit ScopedThreads(size_t N)
      : Prev(ThreadPool::global().threadCount()) {
    ThreadPool::global().setThreadCount(N);
  }
  ~ScopedThreads() { ThreadPool::global().setThreadCount(Prev); }

private:
  size_t Prev;
};

struct TinySetup {
  data::SyntheticCorpus Corpus;
  nn::TransformerModel Model;
  data::Sentence Sent;

  TinySetup() : Corpus(data::CorpusConfig::sstLike(16)) {
    nn::TransformerConfig Cfg;
    Cfg.MaxLen = 16;
    Cfg.EmbedDim = 16;
    Cfg.NumHeads = 2;
    Cfg.HiddenDim = 16;
    Cfg.NumLayers = 2;
    support::Rng Rng(0x5eed);
    Model = nn::TransformerModel::init(Cfg, Corpus.embeddings(), Rng);
    support::Rng SentRng(7);
    Sent = Corpus.sampleSentence(SentRng);
    // Certify against the model's own prediction so margins are
    // positive even for this untrained model.
    Sent.Label = Model.classify(Sent.Tokens);
  }
};

/// One recorded DeepT run on the tiny model (small eps, certified).
CertificateData recordedRun(const TinySetup &S, double Eps = 1e-3) {
  CertificateBuilder Cert;
  Cert.Data.Query = "test-q";
  Cert.Data.Norm = "l2";
  Cert.Data.P = 2.0;
  verify::VerifierConfig VC;
  VC.NoiseReductionBudget = 128;
  VC.Certificate = &Cert;
  verify::DeepTVerifier V(S.Model, VC);
  Matrix X = S.Model.embed(S.Sent.Tokens);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, 0, 2.0, Eps);
  double M = V.certifyMargin(In, S.Sent.Label);
  EXPECT_GT(M, 0.0) << "tiny-model margin should certify at eps " << Eps;
  EXPECT_TRUE(Cert.Data.Margin.Valid);
  return Cert.Data;
}

/// Expects checkCertificate to throw with the given taxonomy code (and,
/// when \p WantMsg is set, a message containing it).
void expectReject(const std::string &Line, ErrorCode Want, const char *What,
                  const char *WantMsg = nullptr) {
  try {
    check::checkCertificate(Line);
    FAIL() << What << ": checker accepted a bad certificate";
  } catch (const support::Error &E) {
    EXPECT_EQ(E.code(), Want) << What << ": " << E.what();
    if (WantMsg) {
      EXPECT_NE(std::string(E.what()).find(WantMsg), std::string::npos)
          << What << ": " << E.what();
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Interval core
//===----------------------------------------------------------------------===//

TEST(CertInterval, DirectedOpsEncloseRoundToNearest) {
  // 0.1 + 0.2 is inexact in binary64, so the directed results must
  // strictly bracket the round-to-nearest sum.
  double Rn = 0.1 + 0.2;
  EXPECT_LT(check::addDown(0.1, 0.2), check::addUp(0.1, 0.2));
  EXPECT_LE(check::addDown(0.1, 0.2), Rn);
  EXPECT_GE(check::addUp(0.1, 0.2), Rn);
  EXPECT_LE(check::mulDown(0.1, 0.1), 0.1 * 0.1);
  EXPECT_GE(check::mulUp(0.1, 0.1), 0.1 * 0.1);
  EXPECT_LE(check::sqrtDown(2.0), std::sqrt(2.0));
  EXPECT_GE(check::sqrtUp(2.0), std::sqrt(2.0));
  // Exact operations stay exact in both directions.
  EXPECT_EQ(check::addDown(1.0, 2.0), 3.0);
  EXPECT_EQ(check::addUp(1.0, 2.0), 3.0);
}

TEST(CertInterval, DualNormEnclosesKernelTrack) {
  // The enclosure must contain an ascending round-to-nearest
  // accumulation of the same terms (the producer's kernel order).
  std::vector<double> V;
  support::Rng Rng(42);
  for (int I = 0; I < 1000; ++I)
    V.push_back(Rng.uniform(-1.0, 1.0));
  double Sq = 0.0, Abs = 0.0, Max = 0.0;
  for (double X : V) {
    Sq += X * X;
    Abs += std::fabs(X);
    Max = std::max(Max, std::fabs(X));
  }
  check::Interval L2 = check::dualNormEnclosure(2.0, V);
  EXPECT_TRUE(L2.contains(std::sqrt(Sq)));
  check::Interval L1 = check::dualNormEnclosure(1.0, V);
  EXPECT_TRUE(L1.contains(Abs));
  check::Interval Linf = check::dualNormEnclosure(-1.0, V);
  EXPECT_EQ(Linf.Lo, Max);
  EXPECT_EQ(Linf.Hi, Max);
}

TEST(CertInterval, ArrayPassesMatchTheScalarOpsBitForBit) {
  // The array passes switch the rounding mode once per pass; their
  // enclosures must be exactly the scalar ops', not merely sound.
  support::Rng Rng(11);
  const size_t N = 4096;
  std::vector<double> C(N), A(N), B(N), Lo(N), Hi(N);
  for (size_t V = 0; V < N; ++V) {
    C[V] = Rng.uniform(-1.0, 1.0) * std::ldexp(1.0, int(V % 40) - 20);
    A[V] = Rng.uniform() * std::ldexp(1.0, int(V % 23) - 11);
    B[V] = V % 5 ? Rng.uniform() * 1e-3 : 0.0;
  }
  const double Inf = std::numeric_limits<double>::infinity();
  auto Expect = [&](size_t WantIdx, bool WantUpper, const char *What) {
    bool Upper = !WantUpper;
    EXPECT_EQ(check::firstUnreplayedBound(C.data(), A.data(), B.data(),
                                          Lo.data(), Hi.data(), N, Upper),
              WantIdx)
        << What;
    if (WantIdx != N) {
      EXPECT_EQ(Upper, WantUpper) << What;
    }
  };
  for (int End = 0; End < 2; ++End) {
    // Every recorded bound sits on one end of its scalar-op enclosure.
    for (size_t V = 0; V < N; ++V) {
      check::Interval L = check::loEnclosure(C[V], A[V], B[V]);
      check::Interval H = check::hiEnclosure(C[V], A[V], B[V]);
      Lo[V] = End ? L.Hi : L.Lo;
      Hi[V] = End ? H.Hi : H.Lo;
    }
    Expect(N, false, "bounds on the enclosure ends");
    const size_t Mid = N / 2 + End;
    const double SavedLo = Lo[Mid], SavedHi = Hi[Mid];
    Lo[Mid] = std::nextafter(SavedLo, End ? Inf : -Inf);
    Expect(Mid, false, "lo one ULP outside");
    Lo[Mid] = SavedLo;
    Hi[Mid] = std::nextafter(SavedHi, End ? Inf : -Inf);
    Expect(Mid, true, "hi one ULP outside");
    Hi[Mid] = SavedHi;
  }
  // Dual norms against the per-operation accumulation.
  double Lo2 = 0.0, Hi2 = 0.0, Lo1 = 0.0, Hi1 = 0.0;
  for (double X : C) {
    Lo2 = check::addDown(Lo2, check::mulDown(X, X));
    Hi2 = check::addUp(Hi2, check::mulUp(X, X));
    Lo1 = check::addDown(Lo1, std::fabs(X));
    Hi1 = check::addUp(Hi1, std::fabs(X));
  }
  check::Interval L2 = check::dualNormEnclosure(2.0, C);
  EXPECT_EQ(L2.Lo, check::sqrtDown(Lo2));
  EXPECT_EQ(L2.Hi, check::sqrtUp(Hi2));
  check::Interval L1 = check::dualNormEnclosure(1.0, C);
  EXPECT_EQ(L1.Lo, Lo1);
  EXPECT_EQ(L1.Hi, Hi1);
  EXPECT_LT(L1.Lo, L1.Hi) << "the sweep should include inexact sums";
}

//===----------------------------------------------------------------------===//
// Producer -> checker round trips
//===----------------------------------------------------------------------===//

TEST(Certificate, DeepTRunReplays) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  check::CertificateSummary Sum =
      check::checkCertificate(Data.toJson());
  EXPECT_EQ(Sum.Query, "test-q");
  EXPECT_EQ(Sum.Kind, "deept");
  EXPECT_EQ(Sum.Precision, "f64");
  EXPECT_TRUE(Sum.Certified);
  EXPECT_GT(Sum.MarginLo, 0.0);
  EXPECT_EQ(Sum.Checkpoints.front().Site, "verify.layer_input");
  EXPECT_EQ(Sum.Checkpoints.back().Site, "verify.logits");
  // The digest is stable under re-checking the same artifact.
  EXPECT_EQ(check::semanticDigest(Sum),
            check::semanticDigest(check::checkCertificate(Data.toJson())));
}

TEST(Certificate, FeedForwardRunReplays) {
  support::Rng Rng(0xfeed);
  nn::FeedForwardNet Net = nn::FeedForwardNet::init({6, 10, 8, 2}, Rng);
  Matrix X(1, 6);
  for (size_t C = 0; C < 6; ++C)
    X.at(0, C) = 0.1 * static_cast<double>(C + 1);
  size_t Label = Net.classify(X);
  CertificateBuilder Cert;
  Cert.Data.Query = "ffn-q";
  Cert.Data.Norm = "linf";
  Cert.Data.P = Matrix::InfNorm;
  bool Ok = verify::certifyFeedForwardLpBall(Net, X, Matrix::InfNorm, 1e-4,
                                             Label, &Cert);
  ASSERT_TRUE(Ok);
  check::CertificateSummary Sum =
      check::checkCertificate(Cert.Data.toJson());
  EXPECT_EQ(Sum.Kind, "ffn");
  EXPECT_TRUE(Sum.Certified);
  EXPECT_EQ(Sum.Checkpoints.front().Site, "ffn.input");
  EXPECT_EQ(Sum.Checkpoints.back().Site, "ffn.layer_output");
  EXPECT_EQ(Sum.Checkpoints.size(), 4u); // input + 3 layers
}

TEST(Certificate, PayloadBitIdenticalAcrossThreadCounts) {
  TinySetup S;
  std::string P1, P4;
  {
    ScopedThreads T(1);
    P1 = recordedRun(S).payloadJson();
  }
  {
    ScopedThreads T(4);
    P4 = recordedRun(S).payloadJson();
  }
  // Same ISA, different thread counts: the payload (and hence its CRC)
  // must be byte-identical; only the envelope's threads field differs.
  EXPECT_EQ(P1, P4);
}

//===----------------------------------------------------------------------===//
// Corrupted-certificate corpus
//===----------------------------------------------------------------------===//

TEST(CertificateCorpus, TruncationRejected) {
  TinySetup S;
  std::string Line = recordedRun(S).toJson();
  // Every truncation point must be a typed StoreCorrupt, never a crash
  // or an acceptance.
  for (size_t Keep : {size_t(0), size_t(1), size_t(10), Line.size() / 2,
                      Line.size() - 1})
    expectReject(Line.substr(0, Keep), ErrorCode::StoreCorrupt,
                 "truncation");
}

TEST(CertificateCorpus, BitFlipInPayloadRejectedByCrc) {
  TinySetup S;
  std::string Line = recordedRun(S).toJson();
  size_t PayloadStart = Line.find("\"payload\":") + 10;
  ASSERT_LT(PayloadStart, Line.size());
  // Flip one bit in several CRC'd payload positions; whether the flip
  // still parses as JSON or not, the artifact must be StoreCorrupt.
  for (size_t Off : {size_t(5), size_t(100), (Line.size() - PayloadStart) / 2}) {
    std::string Bad = Line;
    Bad[PayloadStart + Off] ^= 0x01;
    expectReject(Bad, ErrorCode::StoreCorrupt, "payload bit flip");
  }
}

TEST(CertificateCorpus, TamperedAlphaNormRejected) {
  TinySetup S;
  const CertificateData Good = recordedRun(S);
  // Move the recorded ||alpha||_q out of the replayed enclosure, below
  // and above. The re-serialization recomputes a valid CRC, so only the
  // replay can catch this.
  CertificateData Data = Good;
  Data.Margin.AlphaNorm *= 0.5;
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "shrunk alpha norm", "below the replayed norm");
  Data = Good;
  Data.Margin.AlphaNorm *= 2.0;
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "inflated alpha norm", "above the replayed norm");
}

TEST(CertificateCorpus, UnknownPrecisionRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  // Every certificate is produced in f64; a re-sealed "f32" payload is a
  // format the checker does not understand.
  Data.Precision = "f32";
  expectReject(Data.toJson(), ErrorCode::StoreCorrupt, "f32 precision",
               "unknown precision");
}

TEST(CertificateCorpus, TamperedMarginLoRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  // A grossly inflated lower bound (the cheat that would fake a larger
  // certified margin) must not replay.
  Data.Margin.Lo = Data.Margin.Lo + 1.0;
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "inflated margin lo");
}

TEST(CertificateCorpus, FlippedVerdictRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  ASSERT_GT(Data.Margin.Lo, 0.0);
  Data.Margin.Certified = false; // lo > 0 says otherwise
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "flipped verdict");
}

TEST(CertificateCorpus, NonFiniteConcretizationRejected) {
  TinySetup S;
  {
    CertificateData Data = recordedRun(S);
    Data.Checkpoints[0].Center[0] =
        std::numeric_limits<double>::quiet_NaN();
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "NaN center");
  }
  {
    CertificateData Data = recordedRun(S);
    Data.Margin.Lo = std::numeric_limits<double>::infinity();
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "infinite margin lo");
  }
}

TEST(CertificateCorpus, BookkeepingMismatchRejected) {
  TinySetup S;
  {
    CertificateData Data = recordedRun(S);
    Data.Margin.Alpha.pop_back(); // fewer coefficients than phi symbols
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "alpha length");
  }
  {
    CertificateData Data = recordedRun(S);
    Data.Checkpoints[0].Site = "verify.bogus";
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "unknown site");
  }
  {
    CertificateData Data = recordedRun(S);
    Data.InputLo[0] -= 1.0; // input box escapes the first checkpoint
    expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
                 "input enclosure");
  }
}

TEST(CertificateCorpus, OneUlpShrinkBelowEnclosureRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  // The negative-path oracle: place the margin lower bound exactly one
  // ULP ABOVE the upper end of the directed replay enclosure of
  // c - (na + nb). If the checker's replay were any looser, this would
  // slip through; it must be rejected.
  double UpperEnd = check::subUp(
      Data.Margin.Center,
      check::addDown(Data.Margin.AlphaNorm, Data.Margin.BetaNorm));
  ASSERT_GE(UpperEnd, Data.Margin.Lo); // sanity: honest value encloses
  Data.Margin.Lo = std::nextafter(
      UpperEnd, std::numeric_limits<double>::infinity());
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "1-ULP above enclosure");
  // And the same one ULP below the lower end.
  CertificateData Data2 = recordedRun(S);
  double LowerEnd = check::subDown(
      Data2.Margin.Center,
      check::addUp(Data2.Margin.AlphaNorm, Data2.Margin.BetaNorm));
  ASSERT_LE(LowerEnd, Data2.Margin.Lo);
  Data2.Margin.Lo = std::nextafter(
      LowerEnd, -std::numeric_limits<double>::infinity());
  expectReject(Data2.toJson(), ErrorCode::UnsoundAbstraction,
               "1-ULP below enclosure");
}

TEST(CertificateCorpus, OneUlpTamperOfLastVarOfLargestCheckpointRejected) {
  TinySetup S;
  const CertificateData Good = recordedRun(S);
  size_t Big = 0;
  for (size_t I = 1; I < Good.Checkpoints.size(); ++I)
    if (Good.Checkpoints[I].Lo.size() > Good.Checkpoints[Big].Lo.size())
      Big = I;
  const verify::CertCheckpoint &C = Good.Checkpoints[Big];
  const size_t V = C.Lo.size() - 1;
  ASSERT_GT(V, 8u) << "want a checkpoint that spans several SIMD widths";
  // One ULP past the directed replay enclosure of the array's last entry
  // -- the batched pass must read every variable, up to the end.
  check::Interval LoEnc = check::loEnclosure(C.Center[V], C.PhiNorm[V],
                                             C.EpsNorm[V]);
  check::Interval HiEnc = check::hiEnclosure(C.Center[V], C.PhiNorm[V],
                                             C.EpsNorm[V]);
  ASSERT_TRUE(LoEnc.contains(C.Lo[V]));
  ASSERT_TRUE(HiEnc.contains(C.Hi[V]));
  const std::string Where = "var " + std::to_string(V);
  CertificateData Data = Good;
  Data.Checkpoints[Big].Lo[V] =
      std::nextafter(LoEnc.Hi, std::numeric_limits<double>::infinity());
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "lo 1 ULP above enclosure",
               ("lower bound does not replay: " + Where).c_str());
  Data = Good;
  Data.Checkpoints[Big].Hi[V] =
      std::nextafter(HiEnc.Lo, -std::numeric_limits<double>::infinity());
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "hi 1 ULP below enclosure",
               ("upper bound does not replay: " + Where).c_str());
  // The honest certificate still replays after the round trip.
  EXPECT_NO_THROW(check::checkCertificate(Good.toJson()));
}

TEST(CertificateCorpus, OneUlpTamperOfMiddleBetaEntryRejected) {
  TinySetup S;
  CertificateData Data = recordedRun(S);
  std::vector<double> &Beta = Data.Margin.Beta;
  ASSERT_GT(Beta.size(), 2u);
  // Re-seal the margin around a beta vector whose only non-zero entry is
  // in the middle, so ||beta||_1 is exact and any change to that entry
  // moves the replayed norm off the recorded one.
  const size_t Mid = Beta.size() / 2;
  const double X = 0.1;
  std::fill(Beta.begin(), Beta.end(), 0.0);
  Beta[Mid] = -X;
  CertMargin &M = Data.Margin;
  M.BetaNorm = X;
  M.Lo = M.Center - (M.AlphaNorm + M.BetaNorm);
  M.Hi = M.Center + (M.AlphaNorm + M.BetaNorm);
  M.Certified = M.Lo > 0.0;
  ASSERT_NO_THROW(check::checkCertificate(Data.toJson()));
  Beta[Mid] = -std::nextafter(X, 1.0);
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "beta entry 1 ULP larger", "below the replayed norm");
  Beta[Mid] = -std::nextafter(X, 0.0);
  expectReject(Data.toJson(), ErrorCode::UnsoundAbstraction,
               "beta entry 1 ULP smaller", "above the replayed norm");
}

//===----------------------------------------------------------------------===//
// Scheduler integration
//===----------------------------------------------------------------------===//

namespace {

/// Minimal mkdir-p for the test's cert dir; removed entry by entry.
struct TempDir {
  std::string Path;
  explicit TempDir(std::string P) : Path(std::move(P)) {
    ::mkdir(Path.c_str(), 0755);
  }
};

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

verify::JobSpec tinyJob(const TinySetup &S, const char *Id, double Eps) {
  verify::JobSpec J;
  J.Id = Id;
  J.Tokens = S.Sent.Tokens;
  J.TrueClass = S.Sent.Label;
  J.Word = 0;
  J.P = 2.0;
  J.Epsilon = Eps;
  J.Method = verify::JobMethod::Fast;
  J.NoiseReductionBudget = 128;
  return J;
}

} // namespace

TEST(CertificateScheduler, CertDirHoldsReplayableArtifacts) {
  TinySetup S;
  TempDir Dir(::testing::TempDir() + "cert_sched_dir");
  verify::SchedulerOptions SO;
  SO.CertDir = Dir.Path;
  verify::JobQueue Q;
  Q.push(tinyJob(S, "a", 1e-3));
  Q.push(tinyJob(S, "b", 1e-3));
  verify::Scheduler Sched(S.Model, SO);
  std::vector<verify::JobResult> Results = Sched.run(Q);
  ASSERT_EQ(Results.size(), 2u);
  for (const verify::JobResult &R : Results) {
    ASSERT_TRUE(R.Certified) << R.Key;
    std::string Path = Dir.Path + "/cert-" + R.Key + ".json";
    std::string Line = readFileBytes(Path);
    ASSERT_FALSE(Line.empty()) << Path;
    check::CertificateSummary Sum = check::checkCertificate(Line);
    EXPECT_EQ(Sum.Query, R.Key);
    EXPECT_TRUE(Sum.Certified);
    std::remove(Path.c_str());
  }
  ::rmdir(Dir.Path.c_str());
}

TEST(CertificateScheduler, EmissionIsItsOwnTraceSpan) {
  TinySetup S;
  TempDir Dir(::testing::TempDir() + "cert_emit_span_dir");
  verify::SchedulerOptions SO;
  SO.CertDir = Dir.Path;
  verify::JobQueue Q;
  Q.push(tinyJob(S, "span", 1e-3));
  support::Trace::clear();
  support::Trace::setEnabled(true);
  std::vector<verify::JobResult> Results =
      verify::Scheduler(S.Model, SO).run(Q);
  support::Trace::setEnabled(false);
  std::string Trace = support::Trace::toChromeJson();
  support::Trace::clear();
  ASSERT_EQ(Results.size(), 1u);
  ASSERT_TRUE(Results[0].Certified);
  // Serialization and the atomic write sit under "cert.emit", tagged
  // with the job key like the enclosing "sched.job" span.
  const std::string Span = "cert.emit[" + Results[0].Key + "]";
  EXPECT_NE(Trace.find("\"" + Span + "\""), std::string::npos) << Trace;
  std::remove((Dir.Path + "/cert-" + Results[0].Key + ".json").c_str());
  ::rmdir(Dir.Path.c_str());
}

#ifdef DEEPT_FAULT_INJECT
TEST(CertificateScheduler, CertWriteFaultKeepsBatchRunning) {
  TinySetup S;
  TempDir Dir(::testing::TempDir() + "cert_fault_dir");
  verify::SchedulerOptions SO;
  SO.CertDir = Dir.Path;
  verify::JobQueue Q;
  Q.push(tinyJob(S, "fault-a", 1e-3));
  Q.push(tinyJob(S, "fault-b", 1e-3));
  double FailuresBefore =
      support::Metrics::global().counterValue("cert.write_failures");
  {
    ScopedThreads T(1); // deterministic: exactly the first write faults
    ASSERT_TRUE(support::fault::arm("cert.write:1:fail"));
    verify::Scheduler Sched(S.Model, SO);
    std::vector<verify::JobResult> Results = Sched.run(Q);
    support::fault::disarm();
    // The drill: the injected write fault must not fail any job.
    ASSERT_EQ(Results.size(), 2u);
    EXPECT_EQ(Results[0].Status, verify::JobStatus::Ok);
    EXPECT_EQ(Results[1].Status, verify::JobStatus::Ok);
    EXPECT_TRUE(Results[0].Certified);
    EXPECT_TRUE(Results[1].Certified);
  }
  EXPECT_EQ(support::Metrics::global().counterValue("cert.write_failures"),
            FailuresBefore + 1.0);
  // The faulted job has no artifact; the other one replays.
  EXPECT_TRUE(readFileBytes(Dir.Path + "/cert-fault-a.json").empty());
  std::string Line = readFileBytes(Dir.Path + "/cert-fault-b.json");
  ASSERT_FALSE(Line.empty());
  EXPECT_TRUE(check::checkCertificate(Line).Certified);
  std::remove((Dir.Path + "/cert-fault-a.json").c_str());
  std::remove((Dir.Path + "/cert-fault-b.json").c_str());
  ::rmdir(Dir.Path.c_str());
}
#endif
