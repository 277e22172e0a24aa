//===- perfbench/perfbench.cpp - End-to-end certification benchmark -----===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One closed-loop workload per process: a seeded set of certification
/// queries driven through the library's public entry points
/// (nn::loadModel, verify::certifiedRadius, DeepTVerifier::certifyMargin,
/// verify::Scheduler::run, check::checkCertificate), timed for a given
/// number of seconds, with every output checked. The last stdout line is
/// one JSON object {"correct","attempted","failed","metrics"}; --trace 0
/// reports the end-to-end metrics, --trace 1 the per-layer ones. See
/// perfbench/README.md for the workloads and what each metric predicts.
///
/// Queries are grouped in rounds with a fixed multiset of sentence lengths,
/// and the timed loop always runs whole rounds, so every run measures the
/// same length mix whatever its speed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "check/CertCheck.h"
#include "nn/Serialize.h"
#include "support/Crc.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"
#include "tensor/Kernels.h"
#include "verify/DeepT.h"
#include "verify/RadiusSearch.h"
#include "verify/Scheduler.h"
#include "zono/Zonotope.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace deept;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Paths relative to the checkout root, the working directory of a run:
/// the benchmark's own files, and working space for certificates.
const char *const BenchDir = "perfbench";
const char *const WorkDir = ".bench_build/work";

/// The seed whose outputs are pinned bit-for-bit in refs/.
constexpr uint64_t DefaultSeed = 1;
/// Set-up is repeated this many times per run and its median reported.
constexpr int SetupRepeats = 3;
/// Random points per certified query in the post-run soundness check.
constexpr int SoundnessSamples = 8;
/// Rounds of inputs generated per run (a round takes seconds, so this is
/// far more than any run reaches; the loop wraps around if it does).
constexpr size_t MaxRounds = 64;
/// Queries per round in smoke mode.
constexpr size_t SmokeRoundSize = 4;

struct Workload {
  const char *Name;
  const char *ModelFile; // under perfbench/models
  uint32_t ModelCrc;     // CRC-32 of the model file's bytes
  bool YelpCorpus;
  size_t Threads;
  /// Fixed-eps Combined jobs through verify::Scheduler with certificates
  /// (otherwise DeepT-Fast l2 radius searches, one query at a time).
  bool Batch;
  /// Sentence lengths of one round, in the order they run.
  std::vector<size_t> RoundLengths;
  /// Length of the fixed warm-up sentence.
  size_t WarmLen;
};

/// Rounds are sized so that one round outlasts a 20 s run at the speed of
/// the commit that added them; the reasons for each choice are in
/// perfbench/README.md. yelp_search_4t is not in BENCHMARK.json.
const std::vector<Workload> &workloads() {
  static const std::vector<Workload> W = {
      {"sst_search_1t", "sst_m12.dptm", 0x4641ee49u, false, 1, false,
       {4, 5, 6, 6, 6, 6, 6, 7, 8}, 6},
      {"yelp_search_4t", "yelp_m12.dptm", 0xb454322eu, true, 4, false,
       {8, 8, 8, 9, 9, 9, 10}, 9},
      {"sst_combined_batch_4t", "sst_m12.dptm", 0x4641ee49u, false, 4, true,
       {4, 5, 6, 7, 8, 9, 10, 7, 10, 9, 8, 7, 6, 5, 4, 7,
        4, 5, 6, 7, 8, 9, 10, 7, 10, 9, 8, 7, 6, 5, 4, 7,
        4, 5, 6, 7, 8, 9, 10, 7, 10, 9, 8, 7, 6, 5, 4, 7,
        4, 5, 6, 7, 8, 9, 10, 7, 10, 9, 8, 7, 6, 5, 4, 7}, 6},
  };
  return W;
}

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10.0;
  bool Trace = false;
  /// Smoke mode: every workload path on this (small) model and the sst
  /// corpus, rounds cut to their first SmokeRoundSize queries; no model
  /// CRC or reference check.
  std::string SmokeModel;
  bool WriteRefs = false;
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: error: %s\n", Msg.c_str());
  std::exit(2);
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return static_cast<bool>(In) || In.eof();
}

std::string hexBits(double V) {
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(Bits));
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Bits));
  return Buf;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank > 0 ? Rank - 1 : 0)];
}

/// The median plus the highest tail percentile (in steps of 5) that still
/// has at least ten samples beyond it, with the sample count.
std::string describeTiming(const std::vector<double> &V) {
  char Buf[160];
  int Tail = 0;
  for (int P = 95; P >= 55; P -= 5)
    if (V.size() * (100 - P) >= 1000) {
      Tail = P;
      break;
    }
  if (Tail)
    std::snprintf(Buf, sizeof(Buf), "p50 %.4g  p%d %.4g  (n=%zu)",
                  median(V), Tail, quantile(V, Tail / 100.0), V.size());
  else
    std::snprintf(Buf, sizeof(Buf), "p50 %.4g  (n=%zu, no tail with >=10 "
                  "samples beyond it)", median(V), V.size());
  return Buf;
}

struct Usage {
  double UserS = 0, SysS = 0, MinFlt = 0, MaxRssMb = 0;
  static Usage now() {
    rusage R{};
    getrusage(RUSAGE_SELF, &R);
    Usage U;
    U.UserS = R.ru_utime.tv_sec + R.ru_utime.tv_usec * 1e-6;
    U.SysS = R.ru_stime.tv_sec + R.ru_stime.tv_usec * 1e-6;
    U.MinFlt = static_cast<double>(R.ru_minflt);
    U.MaxRssMb = R.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
    return U;
  }
};

struct Query {
  data::Sentence S;
  double Eps = 0.0; // batch only
};

/// Everything one query produced.
struct Outcome {
  double Value = 0.0; // certified radius (search) or margin (batch)
  bool Certified = false;
  double Seconds = 0.0;
  bool Failed = false;
  std::string Why;
};

/// Samples a correctly classified sentence of exactly \p Len tokens.
data::Sentence sampleOfLength(const data::SyntheticCorpus &Corpus,
                              const nn::TransformerModel &Model, size_t Len,
                              support::Rng &Rng) {
  for (int Guard = 0; Guard < 100000; ++Guard) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (S.Tokens.size() == Len && Model.classify(S.Tokens) == S.Label)
      return S;
  }
  die("no correctly classified sentence of length " + std::to_string(Len));
}

data::CorpusConfig corpusFor(const Workload &W, const Options &O,
                             size_t EmbedDim) {
  bool Yelp = W.YelpCorpus && O.SmokeModel.empty();
  data::CorpusConfig C = Yelp ? data::CorpusConfig::yelpLike(EmbedDim)
                              : data::CorpusConfig::sstLike(EmbedDim);
  // Every round length must be reachable by the sampler.
  C.MinLen = std::min(C.MinLen, W.WarmLen);
  C.MaxLen = std::max(C.MaxLen, W.WarmLen);
  for (size_t L : W.RoundLengths) {
    C.MinLen = std::min(C.MinLen, L);
    C.MaxLen = std::max(C.MaxLen, L);
  }
  return C;
}

/// The state set-up produces.
struct Setup {
  nn::TransformerModel Model;
  uint32_t ModelCrc = 0;
  double LoadMs = 0.0;
  std::vector<std::vector<Query>> Rounds;
  data::Sentence Warm;
};

verify::VerifierConfig searchConfig() {
  verify::VerifierConfig C;
  C.NoiseReductionBudget = 600; // the CLI's certify budget
  return C;
}

/// One fixed certifyMargin query (independent of the seed) with the
/// workload's verifier and thread count. Returns its wall seconds.
double warmUp(const Workload &W, const Setup &St) {
  Clock::time_point T0 = Clock::now();
  verify::VerifierConfig C = searchConfig();
  C.PreciseLastLayerOnly = W.Batch;
  verify::DeepTVerifier V(St.Model, C);
  zono::Zonotope In = zono::Zonotope::lpBallOnRow(
      St.Model.embed(St.Warm.Tokens), 0, 2.0, 0.01);
  (void)V.certifyMargin(In, St.Warm.Label);
  return secondsSince(T0);
}

/// Model load, corpus, seeded inputs and a warm-up query, so allocator
/// arenas and the pool are live before timing.
void setUp(const Workload &W, const Options &O, Setup &Out) {
  std::string Path =
      O.SmokeModel.empty() ? std::string(BenchDir) + "/models/" + W.ModelFile
                           : O.SmokeModel;
  std::string Bytes;
  if (!readFile(Path, Bytes))
    die("cannot read model " + Path);
  Out.ModelCrc = support::crc32(Bytes.data(), Bytes.size());
  if (O.SmokeModel.empty() && Out.ModelCrc != W.ModelCrc) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "crc32 %08x, expected %08x",
                  Out.ModelCrc, W.ModelCrc);
    die("model " + Path + " is not the benchmark's model: " + Buf);
  }
  Clock::time_point T0 = Clock::now();
  support::Error Err;
  // A model that does not load fails set-up; it is never retrained here.
  if (!nn::loadModel(Path, Out.Model, &Err))
    die("model " + Path + " failed to load: " + Err.what());
  Out.LoadMs = secondsSince(T0) * 1e3;

  data::SyntheticCorpus Corpus(corpusFor(W, O, Out.Model.Config.EmbedDim));
  // Rng's stream for seed s + 1 is its stream for s shifted by one draw,
  // so the seed is hashed into the state first.
  support::Rng Rng(support::Rng(O.Seed).next());
  Out.Rounds.assign(MaxRounds, {});
  std::vector<size_t> Lengths = W.RoundLengths;
  if (!O.SmokeModel.empty())
    Lengths.resize(std::min(Lengths.size(), SmokeRoundSize));
  for (std::vector<Query> &Round : Out.Rounds) {
    for (size_t L : Lengths) {
      Query Q;
      Q.S = sampleOfLength(Corpus, Out.Model, L, Rng);
      Round.push_back(std::move(Q));
    }
    if (!W.Batch)
      continue;
    // Jittered-stratified eps over [0.005, 0.02], in a seeded order: both
    // verdicts occur, and every round spans the same range.
    std::vector<double> Eps;
    for (size_t I = 0; I < Round.size(); ++I)
      Eps.push_back(0.005 + 0.015 * (I + Rng.uniform()) / Round.size());
    Rng.shuffle(Eps);
    for (size_t I = 0; I < Round.size(); ++I)
      Round[I].Eps = Eps[I];
  }

  support::Rng WarmRng(0x3a3a);
  Out.Warm = sampleOfLength(Corpus, Out.Model, W.WarmLen, WarmRng);
  (void)warmUp(W, Out);
}

/// Per-run sample buffers and counters filled by the query loops.
struct Samples {
  std::vector<double> QueryS, ReplayMs;
  /// Every certifyMargin call, and each query's median call.
  std::vector<double> ProbeMs, QueryProbeMs;
  size_t Probes = 0, CertifiedProbes = 0;
  std::vector<Outcome> Outcomes; // in execution order
  std::vector<size_t> RoundOf;   // round index per outcome
};

/// One DeepT-Fast l2 certified-radius search at word 0 (the CLI's default
/// search options).
Outcome runSearch(const nn::TransformerModel &Model, const Query &Q,
                  Samples &Smp) {
  Outcome Out;
  Clock::time_point T0 = Clock::now();
  std::vector<double> ProbeMs;
  verify::DeepTVerifier V(Model, searchConfig());
  auto Probe = [&](double Radius) {
    Clock::time_point P0 = Clock::now();
    tensor::Matrix X = Model.embed(Q.S.Tokens);
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, 0, 2.0, Radius);
    double M;
    {
      support::TraceSpan Span("bench.certify_margin");
      M = V.certifyMargin(In, Q.S.Label);
    }
    ProbeMs.push_back(secondsSince(P0) * 1e3);
    ++Smp.Probes;
    if (!std::isfinite(M))
      throw support::Error(support::ErrorCode::UnsoundAbstraction,
                           "perfbench", "non-finite margin");
    Smp.CertifiedProbes += M > 0.0;
    return M > 0.0;
  };
  try {
    support::TraceSpan Span("bench.certified_radius");
    Out.Value = verify::certifiedRadius(Probe);
    Out.Certified = Out.Value > 0.0;
    if (!Out.Certified) {
      Out.Failed = true;
      Out.Why = "no certified radius";
    }
  } catch (const std::exception &E) {
    Out.Failed = true;
    Out.Why = E.what();
  }
  Out.Seconds = secondsSince(T0);
  Smp.ProbeMs.insert(Smp.ProbeMs.end(), ProbeMs.begin(), ProbeMs.end());
  Smp.QueryProbeMs.push_back(median(ProbeMs));
  return Out;
}

/// One round of fixed-eps Combined jobs through the scheduler; every
/// emitted certificate is replayed and removed.
std::vector<Outcome> runBatch(const verify::Scheduler &Sched,
                              const std::string &CertDir, size_t Serial,
                              const std::vector<Query> &Round, Samples &Smp) {
  verify::JobQueue Queue;
  std::vector<std::string> Ids;
  for (size_t I = 0; I < Round.size(); ++I) {
    verify::JobSpec J;
    J.Id = "r" + std::to_string(Serial) + "q" + std::to_string(I);
    J.Tokens = Round[I].S.Tokens;
    J.TrueClass = Round[I].S.Label;
    J.Word = 0;
    J.P = 2.0;
    J.Epsilon = Round[I].Eps;
    J.Method = verify::JobMethod::Combined;
    J.NoiseReductionBudget = 600;
    Ids.push_back(J.Id);
    Queue.push(std::move(J));
  }
  std::vector<verify::JobResult> Results;
  {
    support::TraceSpan Span("bench.scheduler_run");
    Results = Sched.run(Queue);
  }
  std::vector<Outcome> Outs(Round.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    const verify::JobResult &R = Results[I];
    Outcome &O = Outs[I];
    O.Value = R.Margin;
    O.Certified = R.Certified;
    O.Seconds = R.Seconds;
    // A fixed-eps job is one certifyMargin call.
    Smp.ProbeMs.push_back(R.Seconds * 1e3);
    Smp.QueryProbeMs.push_back(R.Seconds * 1e3);
    std::string Path = CertDir + "/cert-" + Ids[I] + ".json";
    if (R.Status != verify::JobStatus::Ok) {
      O.Failed = true;
      O.Why = std::string("status ") + verify::jobStatusName(R.Status) +
              ": " + R.Error;
    } else if (!std::isfinite(R.Margin) || R.Certified != (R.Margin > 0.0)) {
      O.Failed = true;
      O.Why = "inconsistent margin/verdict";
    } else if (R.Certified) {
      std::string Line;
      if (!readFile(Path, Line)) {
        O.Failed = true;
        O.Why = "certificate missing";
      } else {
        Clock::time_point T0 = Clock::now();
        try {
          check::CertificateSummary S;
          {
            support::TraceSpan Span("bench.check_certificate");
            S = check::checkCertificate(Line);
          }
          if (!S.Certified || S.MarginLo != R.Margin) {
            O.Failed = true;
            O.Why = "certificate disagrees with the job result";
          }
        } catch (const std::exception &E) {
          O.Failed = true;
          O.Why = std::string("certificate does not replay: ") + E.what();
        }
        Smp.ReplayMs.push_back(secondsSince(T0) * 1e3);
      }
    } else if (access(Path.c_str(), F_OK) == 0) {
      O.Failed = true;
      O.Why = "certificate emitted for an uncertified job";
    }
    std::remove(Path.c_str());
  }
  return Outs;
}

/// Runs whole rounds until \p Seconds have elapsed (at least one round).
/// Returns the wall seconds taken.
double timedLoop(const Workload &W, const Setup &St,
                 const verify::Scheduler &Sched, const std::string &CertDir,
                 double Seconds, Samples &Smp) {
  Clock::time_point T0 = Clock::now();
  for (size_t R = 0;; ++R) {
    const std::vector<Query> &Round = St.Rounds[R % St.Rounds.size()];
    std::vector<Outcome> Outs;
    if (W.Batch) {
      Outs = runBatch(Sched, CertDir, R, Round, Smp);
    } else {
      for (const Query &Q : Round)
        Outs.push_back(runSearch(St.Model, Q, Smp));
    }
    for (Outcome &O : Outs) {
      Smp.QueryS.push_back(O.Seconds);
      Smp.Outcomes.push_back(std::move(O));
      Smp.RoundOf.push_back(R);
    }
    if (secondsSince(T0) >= Seconds)
      break;
  }
  return secondsSince(T0);
}

/// Soundness spot check: random points on the boundary of each certified
/// l2 ball must keep the concrete classification.
void checkSoundness(const nn::TransformerModel &Model, const Setup &St,
                    Samples &Smp) {
  support::Rng Rng(0x50d);
  for (size_t I = 0; I < Smp.Outcomes.size(); ++I) {
    Outcome &O = Smp.Outcomes[I];
    if (O.Failed || !O.Certified)
      continue;
    const Query &Q =
        St.Rounds[Smp.RoundOf[I] % St.Rounds.size()][I % St.Rounds[0].size()];
    double Radius = Q.Eps > 0.0 ? Q.Eps : O.Value; // batch : search
    tensor::Matrix X = Model.embed(Q.S.Tokens);
    for (int K = 0; K < SoundnessSamples; ++K) {
      std::vector<double> U(X.cols());
      double Norm = 0.0;
      for (double &V : U) {
        V = Rng.gaussian();
        Norm += V * V;
      }
      Norm = std::sqrt(Norm);
      tensor::Matrix Xp = X;
      for (size_t C = 0; C < X.cols(); ++C)
        Xp.at(0, C) += Radius * U[C] / Norm;
      if (Model.forwardEmbeddings(Xp).argmax() != Q.S.Label) {
        O.Failed = true;
        O.Why = "a point inside the certified region is misclassified";
        break;
      }
    }
  }
}

std::string refsPath(const Options &O) {
  return std::string(BenchDir) + "/refs/" + O.Workload + "." +
         tensor::isaName(tensor::currentIsa()) + ".txt";
}

/// Reference lines are "<round> <index in round> <value bits> <certified>";
/// refKey is the first half, refValue the second.
std::string refKey(const Samples &Smp, size_t I, size_t PerRound) {
  return std::to_string(Smp.RoundOf[I]) + " " + std::to_string(I % PerRound);
}

std::string refValue(const Outcome &Out) {
  return hexBits(Out.Value) + " " + (Out.Certified ? "1" : "0");
}

/// Compares the outputs of the default seed against the committed
/// references for the current ISA; a mismatch fails that query.
void checkReferences(const Options &O, const Setup &St, Samples &Smp) {
  std::string Text;
  if (!readFile(refsPath(O), Text)) {
    for (Outcome &Out : Smp.Outcomes) {
      Out.Failed = true;
      Out.Why = "no reference file " + refsPath(O);
    }
    return;
  }
  std::map<std::string, std::string> Ref; // refKey -> refValue
  std::istringstream In(Text);
  std::string Round, Index, Bits, Cert;
  while (In >> Round >> Index >> Bits >> Cert)
    Ref[Round + " " + Index] = Bits + " " + Cert;
  size_t PerRound = St.Rounds[0].size();
  size_t Compared = 0;
  for (size_t I = 0; I < Smp.Outcomes.size(); ++I) {
    Outcome &Out = Smp.Outcomes[I];
    auto It = Ref.find(refKey(Smp, I, PerRound));
    if (It == Ref.end())
      continue;
    ++Compared;
    if (It->second != refValue(Out) && !Out.Failed) {
      Out.Failed = true;
      Out.Why = "output " + refValue(Out) + " differs from reference " +
                It->second;
    }
  }
  std::printf("references: %zu of %zu outputs compared against %s\n",
              Compared, Smp.Outcomes.size(), refsPath(O).c_str());
}

/// CRC-32 over the bit patterns and verdicts of the given outputs.
uint32_t digest(const std::vector<Outcome> &Outs, size_t Count) {
  std::string Bytes;
  for (size_t I = 0; I < Count && I < Outs.size(); ++I)
    Bytes += hexBits(Outs[I].Value) + (Outs[I].Certified ? "1" : "0");
  return support::crc32(Bytes.data(), Bytes.size());
}

/// Self time per span name (the "[...]" index/tag suffix stripped) over
/// all threads, and the main thread's total, from the recorded trace.
struct TraceTotals {
  std::map<std::string, double> SelfMs;
  double MainThreadMs = 0.0;
};

TraceTotals traceTotals() {
  support::JsonValue Doc;
  std::string Err;
  if (!support::parseJson(support::Trace::toChromeJson(), Doc, &Err))
    die("trace export does not parse: " + Err);
  const support::JsonValue *Events = Doc.find("traceEvents");
  TraceTotals T;
  double MainTid = -1.0;
  std::map<double, double> SelfByTid;
  for (const support::JsonValue &E : Events->Items) {
    std::string Name = E.find("name")->StringVal;
    Name = Name.substr(0, Name.find('['));
    double Self = E.find("args")->find("self_us")->NumberVal / 1e3;
    double Tid = E.find("tid")->NumberVal;
    T.SelfMs[Name] += Self;
    SelfByTid[Tid] += Self;
    if (Name == "bench.certified_radius" || Name == "bench.scheduler_run")
      MainTid = Tid;
  }
  T.MainThreadMs = SelfByTid[MainTid];
  return T;
}

/// Which library layer a span's self time belongs to. The benchmark's own
/// spans wrap one public call each and are charged to that call's layer.
const char *layerOf(const std::string &Span) {
  if (Span.rfind("zono.", 0) == 0)
    return "zono";
  if (Span == "bench.check_certificate")
    return "check";
  return "verify"; // deept.*, radius_search*, sched.*, other bench.*
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Ms) {
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric &M : Ms)
    std::printf("%-36s %16.6g  %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string J = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.10g", Ms[I].Value);
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  auto Need = [&](int &I) -> std::string {
    if (I + 1 >= Argc)
      die(std::string("flag ") + Argv[I] + " needs a value");
    return Argv[++I];
  };
  auto Number = [&](const std::string &Flag, const std::string &Text) {
    char *End = nullptr;
    double V = std::strtod(Text.c_str(), &End);
    if (Text.empty() || *End != '\0' || !std::isfinite(V) || V < 0)
      die("flag " + Flag + ": bad value '" + Text + "'");
    return V;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    if (F == "--workload")
      O.Workload = Need(I);
    else if (F == "--seed")
      O.Seed = static_cast<uint64_t>(Number(F, Need(I)));
    else if (F == "--seconds")
      O.Seconds = Number(F, Need(I));
    else if (F == "--trace") {
      std::string V = Need(I);
      if (V != "0" && V != "1")
        die("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (F == "--smoke-model")
      O.SmokeModel = Need(I);
    else if (F == "--write-refs")
      O.WriteRefs = true;
    else if (F == "--isa") {
      tensor::Isa Isa = tensor::Isa::Scalar;
      std::string Err;
      std::string V = Need(I);
      if (!tensor::parseIsa(V, Isa, &Err) || !tensor::setIsa(Isa, &Err))
        die("--isa " + V + ": " + Err);
    } else
      die("unknown flag " + F);
  }
  return O;
}

/// --make-model NAME DIR: regenerates a committed model from the bench
/// preset table2 uses (bench/Common.h getModel), into DIR/NAME.dptm.
int makeModel(const std::string &Name, const std::string &Dir) {
  if (Name != "yelp_m12")
    die("--make-model knows only yelp_m12");
  data::CorpusConfig CC = data::CorpusConfig::yelpLike(24);
  CC.MinLen = 6; // table2's corpus settings
  CC.MaxLen = 8;
  data::SyntheticCorpus Corpus(CC);
  // getModel trains into (or loads from) the model cache directory.
  setenv("DEEPT_MODEL_CACHE", Dir.c_str(), 1);
  bench::getModel(Name, Corpus, bench::standardConfig(12));
  std::printf("wrote %s/%s.dptm\n", Dir.c_str(), Name.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point ProcessStart = Clock::now();
  if (Argc == 4 && std::string(Argv[1]) == "--make-model")
    return makeModel(Argv[2], Argv[3]);
  Options O = parseOptions(Argc, Argv);
  const Workload *WP = nullptr;
  for (const Workload &W : workloads())
    if (O.Workload == W.Name)
      WP = &W;
  if (!WP)
    die("unknown --workload '" + O.Workload + "'");
  const Workload &W = *WP;
  if (O.WriteRefs && (O.Seed != DefaultSeed || !O.SmokeModel.empty()))
    die("--write-refs needs the default seed and the benchmark's models");
  support::ThreadPool::global().setThreadCount(W.Threads);

  // Set-up, repeated; the first repetition is timed from process start.
  std::vector<double> SetupS, LoadMs;
  Setup St;
  for (int K = 0; K < SetupRepeats; ++K) {
    Clock::time_point T0 = K == 0 ? ProcessStart : Clock::now();
    St = Setup();
    setUp(W, O, St);
    SetupS.push_back(secondsSince(T0));
    LoadMs.push_back(St.LoadMs);
  }
  std::string CertDir =
      std::string(WorkDir) + "/certs-" + std::to_string(getpid());
  std::error_code Ec;
  std::filesystem::create_directories(CertDir, Ec);
  if (Ec)
    die("cannot create certificate directory " + CertDir + ": " +
        Ec.message());
  verify::SchedulerOptions SO;
  SO.CertDir = CertDir;
  verify::Scheduler Sched(St.Model, SO);

  const char *Isa = tensor::isaName(tensor::currentIsa());
  std::printf("workload %s  seed %llu  isa %s  threads %zu  model %s "
              "crc32 %08x\n",
              W.Name, static_cast<unsigned long long>(O.Seed), Isa,
              support::ThreadPool::global().threadCount(),
              O.SmokeModel.empty() ? W.ModelFile : O.SmokeModel.c_str(),
              St.ModelCrc);

  // Tracing overhead: the fixed warm-up query, alternately untraced and
  // traced, before the timed region (whose spans alone are kept).
  double OverheadFrac = 0.0;
  if (O.Trace) {
    std::vector<double> Plain, Traced;
    for (int K = 0; K < 3; ++K) {
      Plain.push_back(warmUp(W, St));
      support::Trace::setEnabled(true);
      Traced.push_back(warmUp(W, St));
      support::Trace::setEnabled(false);
    }
    OverheadFrac = median(Traced) / median(Plain) - 1.0;
  }

  support::Metrics::global().reset();
  if (O.Trace) {
    support::Trace::clear();
    support::Trace::setEnabled(true);
  }
  Samples Smp;
  Usage U0 = Usage::now();
  double WallS = timedLoop(W, St, Sched, CertDir, O.Seconds, Smp);
  Usage U1 = Usage::now();
  support::Trace::setEnabled(false);
  std::filesystem::remove_all(CertDir, Ec);

  // Output checks (outside the timed region).
  checkSoundness(St.Model, St, Smp);
  if (O.Seed == DefaultSeed && O.SmokeModel.empty() && !O.WriteRefs)
    checkReferences(O, St, Smp);
  size_t PerRound = St.Rounds[0].size();
  size_t Attempted = Smp.Outcomes.size(), Failed = 0, Certified = 0;
  double ValueSum = 0.0;
  std::vector<double> Values;
  for (size_t I = 0; I < Attempted; ++I) {
    const Outcome &Out = Smp.Outcomes[I];
    const Query &Q = St.Rounds[Smp.RoundOf[I] % MaxRounds][I % PerRound];
    std::printf("query %zu.%zu  len %2zu  eps %.4f  %s %.6g  %s  %.3f s%s%s\n",
                Smp.RoundOf[I], I % PerRound, Q.S.Tokens.size(), Q.Eps,
                W.Batch ? "margin" : "radius", Out.Value,
                Out.Certified ? "certified" : "not-certified", Out.Seconds,
                Out.Failed ? "  FAILED: " : "", Out.Why.c_str());
    ValueSum += Out.Value;
    Values.push_back(Out.Value);
    Certified += Out.Certified;
    Failed += Out.Failed;
  }
  if (O.WriteRefs) {
    std::ofstream Ref(refsPath(O));
    for (size_t I = 0; I < Smp.Outcomes.size(); ++I)
      Ref << refKey(Smp, I, PerRound) << " " << refValue(Smp.Outcomes[I])
          << "\n";
    if (!Ref)
      die("cannot write " + refsPath(O));
    std::printf("wrote %s\n", refsPath(O).c_str());
  }
  std::printf("outputs: %zu queries in %zu rounds; digest of round 0 %08x, "
              "of all %08x\n",
              Attempted, Smp.RoundOf.back() + 1,
              digest(Smp.Outcomes, PerRound),
              digest(Smp.Outcomes, Smp.Outcomes.size()));
  std::printf("query wall s: %s\n", describeTiming(Smp.QueryS).c_str());
  std::printf("probe wall ms: %s\n", describeTiming(Smp.ProbeMs).c_str());
  double N = static_cast<double>(Attempted);
  std::printf("failed_frac: %.4g (%zu of %zu)  certified_frac: %.4g  "
              "%s mean %.6g median %.6g\n",
              Failed / N, Failed, Attempted, Certified / N,
              W.Batch ? "margin" : "radius", ValueSum / N, median(Values));

  double CpuS = (U1.UserS - U0.UserS) + (U1.SysS - U0.SysS);
  double Threads = static_cast<double>(W.Threads);
  bool Correct = Failed == 0;
  std::vector<Metric> Ms;
  if (!O.Trace) {
    Ms = {
        {"setup_s", median(SetupS), "s"},
        {"queries_per_s", N / WallS, "1/s"},
        {"cpu_s_per_query", CpuS / N, "s"},
        {"query_s.p50", median(Smp.QueryS), "s"},
        {"probe_ms.p50", median(Smp.QueryProbeMs), "ms"},
        {"peak_rss_mb", U1.MaxRssMb, "MB"},
        // A search's precision is its median certified radius (the mean
        // is swayed by the odd sentence with a near-zero radius). Fixed-eps
        // margin lower bounds are bimodal (the tanh pooler saturates once
        // the bounds loosen), so the batch's is its certified fraction.
        {"precision", W.Batch ? Certified / N : median(Values), "score"},
        {"success_frac", (N - Failed) / N, "frac"},
    };
  } else {
    support::Metrics &MR = support::Metrics::global();
    TraceTotals T = traceTotals();
    auto Self = [&](const char *Span) { return T.SelfMs[Span]; };
    std::map<std::string, double> LayerMs;
    for (const auto &[Span, Ms] : T.SelfMs)
      LayerMs[layerOf(Span)] += Ms;
    double DotS = (Self("zono.dot_rows") + Self("zono.dot.quadratic_fast") +
                   Self("zono.dot.quadratic_precise")) /
                  1e3;
    double FlopsEst = MR.counterValue("zono.dot.flops_est");
    support::Histogram::Stats Gemm = MR.histogramStats(
        std::string("gemm.tile_ms.") + Isa);
    double RefineRows = MR.counterValue("zono.refine.rows");
    double JobS = 0.0;
    for (double S : Smp.QueryS)
      JobS += W.Batch ? S : 0.0;
    double Coverage = T.MainThreadMs / (WallS * 1e3);
    double CertBytes = MR.counterValue("cert.bytes");

    std::printf("\nself time per span (traced timed region %.3f s):\n",
                WallS);
    std::vector<std::pair<double, std::string>> BySelf;
    for (const auto &[Span, Ms] : T.SelfMs)
      BySelf.push_back({Ms, Span});
    std::sort(BySelf.rbegin(), BySelf.rend());
    for (const auto &[Ms, Span] : BySelf)
      std::printf("  %-34s %-7s %12.3f ms\n", Span.c_str(), layerOf(Span),
                  Ms);
    std::printf("self time per layer:\n");
    for (const auto &[Layer, Ms] : LayerMs)
      std::printf("  %-10s %12.3f ms\n", Layer.c_str(), Ms);
    std::printf("main-thread span self time covers %.2f%% of the timed "
                "region\n",
                100.0 * Coverage);
    if (Coverage < 0.95 || Coverage > 1.01) {
      std::printf("CHECK FAILED: layer self times do not account for the "
                  "traced timed region\n");
      Correct = false;
    }
    Ms = {
        {"zono.softmax.self_ms", Self("zono.softmax"), "ms"},
        {"zono.softmax_refine.self_ms", Self("zono.softmax_refine"), "ms"},
        {"zono.densify_count", MR.counterValue("zono.densify_count"),
         "count"},
        {"zono.refine.tightened_per_row",
         RefineRows > 0
             ? MR.counterValue("zono.refine.symbols_tightened") / RefineRows
             : 0.0,
         "ratio"},
        {"zono.refine.shrinkage.mean",
         MR.histogramStats("zono.refine.shrinkage").mean(), "ratio"},
        {"zono.dot.quadratic_precise.self_ms",
         Self("zono.dot.quadratic_precise"), "ms"},
        {"zono.dot_rows.self_ms", Self("zono.dot_rows"), "ms"},
        {"zono.dot.quadratic_fast.self_ms", Self("zono.dot.quadratic_fast"),
         "ms"},
        {"zono.dot.flops_est", FlopsEst, "flop"},
        {"zono.reduce.self_ms", Self("zono.reduce"), "ms"},
        {"zono.eps_symbols.created",
         MR.counterValue("zono.eps_symbols.created"), "count"},
        {"zono.eps_symbols.reduced",
         MR.counterValue("zono.eps_symbols.reduced"), "count"},
        {"zono.coeff_bytes.peak", MR.gaugeValue("zono.coeff_bytes"), "B"},
        {"deept.attention.qkv.self_ms", Self("deept.attention.qkv"), "ms"},
        {"deept.attention.proj_norm.self_ms",
         Self("deept.attention.proj_norm"), "ms"},
        {"deept.ffn.self_ms", Self("deept.ffn"), "ms"},
        {"deept.attention.head.self_ms", Self("deept.attention.head"), "ms"},
        {"tensor.gemm.tile_ms.sum", Gemm.Sum, "ms"},
        {"tensor.gemm.tiles", static_cast<double>(Gemm.Count), "count"},
        {"tensor.dot.gflops", DotS > 0 ? FlopsEst / DotS / 1e9 : 0.0,
         "GFLOP/s"},
        {"tensor.mem.minor_faults", U1.MinFlt - U0.MinFlt, "count"},
        {"tensor.mem.sys_s", U1.SysS - U0.SysS, "s"},
        {"support.pool.tasks", MR.counterValue("pool.tasks"), "count"},
        {"support.pool.idle_s", MR.counterValue("pool.steal_idle_ns") / 1e9,
         "s"},
        {"support.pool.efficiency", CpuS / (WallS * Threads), "frac"},
        {"verify.search.probes_per_query",
         W.Batch ? 0.0 : static_cast<double>(Smp.Probes) / N, "count"},
        {"verify.search.certified_probe_frac",
         Smp.Probes ? static_cast<double>(Smp.CertifiedProbes) / Smp.Probes
                    : 0.0,
         "frac"},
        {"verify.sched.queue_ms.p50",
         MR.histogramStats("sched.queue_latency_ms").P50, "ms"},
        {"verify.sched.job_s.p50",
         MR.histogramStats("sched.job_ms").P50 / 1e3, "s"},
        {"verify.sched.idle_frac",
         W.Batch ? 1.0 - JobS / (WallS * Threads) : 0.0, "frac"},
        {"verify.cert.bytes_per_query", CertBytes / N, "B"},
        {"check.replay_ms.p50", median(Smp.ReplayMs), "ms"},
        {"nn.load_model_ms", median(LoadMs), "ms"},
        {"trace.overhead_frac", OverheadFrac, "frac"},
        {"trace.coverage", Coverage, "frac"},
        {"layer.verify.self_ms", LayerMs["verify"], "ms"},
        {"layer.zono.self_ms", LayerMs["zono"], "ms"},
        {"layer.check.self_ms", LayerMs["check"], "ms"},
    };
  }
  printResult(Correct, Attempted, Failed, Ms);
  return 0;
}
