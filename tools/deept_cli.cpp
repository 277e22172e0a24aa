//===- tools/deept_cli.cpp - Command line front end ------------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
// The deept command line tool: train Transformer sentiment classifiers on
// the synthetic corpora, certify them under threat models T1 and T2 with
// any verifier of the family, attack them, and inspect saved models.
//
//   deept_cli train   --out model.dptm --corpus sst --layers 3 [...]
//   deept_cli certify --model model.dptm --corpus sst --norm l2 [...]
//   deept_cli synonym --model model.dptm --corpus synonym [--count 10]
//   deept_cli attack  --model model.dptm --corpus sst --norm l2 [...]
//   deept_cli info    --model model.dptm
//
//===----------------------------------------------------------------------===//

#include "attack/Enumeration.h"
#include "attack/Pgd.h"
#include "crown/CrownVerifier.h"
#include "nn/Serialize.h"
#include "nn/Train.h"
#include "support/ArgParse.h"
#include "support/Error.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Prometheus.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "tensor/Kernels.h"
#include "verify/Certificate.h"
#include "verify/Coordination.h"
#include "verify/DeepT.h"
#include "verify/Profile.h"
#include "verify/RadiusSearch.h"
#include "verify/Scheduler.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace deept;
using support::ArgParse;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: deept_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  train    --out FILE [--corpus sst|yelp|synonym] [--embed N]\n"
      "           [--layers N] [--heads N] [--hidden N] [--steps N]\n"
      "           [--std-layernorm] [--robust] [--seed N]\n"
      "  certify  --model FILE [--corpus ...] [--norm l1|l2|linf]\n"
      "           [--word N] [--sentences N]\n"
      "           [--verifier fast|precise|combined|crown-baf|crown-backward]\n"
      "           [--eps R] certify one fixed radius R (prints the margin;\n"
      "           a non-positive margin means falsified) instead of binary-\n"
      "           searching the largest certifiable radius\n"
      "           [--precision f32|f64] kernel precision for the dual-norm\n"
      "           reductions (DeepT verifiers only; f32 is soundly widened\n"
      "           and auto-escalates to f64 when a query would falsify)\n"
      "           [--profile-out FILE.jsonl] per-query precision profiles\n"
      "           (checkpoint width/growth stats + noise-symbol\n"
      "           attribution; DeepT verifiers only, one line per margin\n"
      "           computation)\n"
      "           [--cert-out FILE.jsonl] proof certificates (DeepT\n"
      "           verifiers only, one CRC-checked envelope per margin\n"
      "           computation; replay with `deept_check FILE.jsonl`)\n"
      "  synonym  --model FILE [--corpus ...] [--count N]\n"
      "  attack   --model FILE [--corpus ...] [--norm l1|l2|linf] [--word N]\n"
      "  batch    --model FILE --jobs FILE.json --out FILE.jsonl\n"
      "           [--corpus ...] [--deadline-ms N] [--resume] [--fsync]\n"
      "           [--profile-out FILE.jsonl] [--recorder-dir DIR]\n"
      "           run a batch of certification jobs on the scheduler:\n"
      "           per-job deadlines, Precise->Fast degradation, results\n"
      "           appended to the JSONL store (one object per job);\n"
      "           --resume skips jobs already present in the store and\n"
      "           repairs a crash-torn trailing record; --fsync makes\n"
      "           each record durable before the next job commits;\n"
      "           --profile-out streams per-job precision profiles,\n"
      "           --recorder-dir keeps a flight-recorder artifact\n"
      "           (recorder-<key>.json) for each job that errors or hits\n"
      "           its deadline, and --cert-dir DIR writes a proof\n"
      "           certificate (cert-<key>.json, replayable with\n"
      "           deept_check) for each DeepT job whose final probe\n"
      "           certified\n"
      "  work     --model FILE --jobs FILE.json --lease-dir DIR\n"
      "           [--corpus ...] [--workers N] [--ranges N]\n"
      "           [--worker-id ID] [--heartbeat-ms N] [--stale-ms N]\n"
      "           [--max-retries N] [--deadline-ms N] [--fsync]\n"
      "           [--out FILE.jsonl]\n"
      "           crash-tolerant multi-worker batch: jobs shard into\n"
      "           --ranges digest ranges, each guarded by a lease file\n"
      "           under --lease-dir (heartbeat every --heartbeat-ms;\n"
      "           leases silent for --stale-ms, default 5 heartbeats, are\n"
      "           reclaimed and their shard resumed). Run the same\n"
      "           command from N machines/processes, or let --workers N\n"
      "           fork N local workers. Transient job failures retry up\n"
      "           to --max-retries times on a deterministic exponential\n"
      "           backoff. --out merges the shards once every range is\n"
      "           done (equivalent to a separate `merge`)\n"
      "  merge    --lease-dir DIR --out FILE.jsonl [--ranges N]\n"
      "           merge the per-range shards of a `work` batch into one\n"
      "           canonical results JSONL (sorted by key, CRC-checked,\n"
      "           duplicate records collapsed; conflicting duplicates are\n"
      "           a store_corrupt error)\n"
      "  metrics  [--from stats.json]  print the metrics registry (or a\n"
      "           saved --stats-json artifact) in Prometheus text\n"
      "           exposition format\n"
      "  info     --model FILE\n"
      "\n"
      "exit codes: 0 success, 2 bad arguments, 3 model/store load\n"
      "failure, 4 deadline exceeded, 5 internal error\n"
      "\n"
      "execution (any command):\n"
      "  --threads N             worker threads for the shared pool\n"
      "                          (default: all cores, or DEEPT_THREADS);\n"
      "                          results are identical for any N\n"
      "  --isa scalar|avx2|avx512|native\n"
      "                          SIMD kernel table (default: widest the\n"
      "                          CPU supports, or DEEPT_ISA); results are\n"
      "                          bit-identical for any thread count within\n"
      "                          an ISA\n"
      "\n"
      "observability (any command):\n"
      "  --trace-out FILE.json   record spans, write Chrome trace_event\n"
      "                          JSON (chrome://tracing / Perfetto) and\n"
      "                          print a self-time summary to stderr\n"
      "  --stats-json FILE.json  write the metrics registry as JSON\n");
  return 2;
}

data::CorpusConfig corpusConfig(const std::string &Kind, size_t EmbedDim) {
  if (Kind == "yelp")
    return data::CorpusConfig::yelpLike(EmbedDim);
  if (Kind == "synonym")
    return data::CorpusConfig::synonymRich(EmbedDim);
  return data::CorpusConfig::sstLike(EmbedDim);
}

/// Strict parse of --norm (default l2): only l1, l2 and linf are
/// accepted. Anything else fails with exit code 2 instead of running l2
/// under the unknown name's label. Returns 0 and fills \p P on success.
int parseNormOrFail(const ArgParse &Args, double &P) {
  std::string Name = Args.get("norm", "l2");
  if (verify::parseNormToken(Name, P))
    return 0;
  std::fprintf(stderr,
               "error: --norm expects 'l1', 'l2' or 'linf', got '%s'\n",
               Name.c_str());
  return 2;
}

int cmdTrain(const ArgParse &Args) {
  std::string Out = Args.get("out");
  if (Out.empty()) {
    std::fprintf(stderr, "error: train needs --out FILE\n");
    return 2;
  }
  size_t EmbedDim = Args.getInt("embed", 24);
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "sst"), EmbedDim));

  nn::TransformerConfig Cfg;
  Cfg.EmbedDim = EmbedDim;
  Cfg.NumHeads = Args.getInt("heads", 4);
  Cfg.HiddenDim = Args.getInt("hidden", EmbedDim);
  Cfg.NumLayers = Args.getInt("layers", 3);
  Cfg.MaxLen = 16;
  Cfg.LayerNormStdDiv = Args.has("std-layernorm");

  support::Rng Rng(Args.getInt("seed", 1));
  nn::TransformerModel Model =
      nn::TransformerModel::init(Cfg, Corpus.embeddings(), Rng);

  support::Rng DataRng(Args.getInt("seed", 1) + 1);
  auto Train = Corpus.sampleDataset(512, DataRng);
  auto Test = Corpus.sampleDataset(200, DataRng);
  nn::TrainOptions Opts;
  Opts.Steps = Args.getInt("steps", 60 * Cfg.NumLayers + 120);
  Opts.BatchSize = 16;
  if (Args.has("robust")) {
    Opts.SynonymSwapProb = 0.8;
    Opts.EmbedNoise = 0.03;
  }
  double TrainSeconds = 0.0;
  {
    support::ScopedAccum A(TrainSeconds);
    nn::trainTransformer(Model, Corpus, Train, Opts);
  }
  std::printf("trained %zu-layer model in %.1f s, accuracy %.1f%%\n",
              Cfg.NumLayers, TrainSeconds,
              100.0 * nn::accuracy(Model, Test));
  support::Error SaveErr;
  if (!nn::saveModel(Out, Model, &SaveErr)) {
    std::fprintf(stderr, "error: %s\n", SaveErr.what());
    return support::exitCodeFor(SaveErr.code());
  }
  std::printf("saved to %s\n", Out.c_str());
  return 0;
}

int loadModelOrFail(const ArgParse &Args, nn::TransformerModel &Model) {
  std::string Path = Args.get("model");
  if (Path.empty()) {
    std::fprintf(stderr, "error: missing --model FILE\n");
    return support::exitCodeFor(support::ErrorCode::BadArgument);
  }
  support::Error Err;
  if (!nn::loadModel(Path, Model, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.what());
    return support::exitCodeFor(Err.code());
  }
  return 0;
}

int cmdCertify(const ArgParse &Args) {
  double P = 2.0;
  if (int Rc = parseNormOrFail(Args, P))
    return Rc;
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "sst"), Model.Config.EmbedDim));
  size_t Word = Args.getInt("word", 0);
  size_t Count = Args.getInt("sentences", 3);
  std::string Verifier = Args.get("verifier", "fast");
  double FixedEps = Args.getDouble("eps", 0.0);
  bool IsCrown = Verifier == "crown-baf" || Verifier == "crown-backward";

  std::string ProfileOut = Args.get("profile-out");
  if (!ProfileOut.empty() && IsCrown) {
    std::fprintf(stderr, "error: --profile-out needs a DeepT verifier "
                         "(fast, precise or combined)\n");
    return 2;
  }
  std::string CertOut = Args.get("cert-out");
  if (!CertOut.empty() && IsCrown) {
    std::fprintf(stderr, "error: --cert-out needs a DeepT verifier "
                         "(fast, precise or combined)\n");
    return 2;
  }

  support::FpPrecision Precision = support::FpPrecision::F64;
  if (Args.has("precision")) {
    std::string Err;
    if (!support::parseFpPrecision(Args.get("precision"), Precision, &Err)) {
      std::fprintf(stderr, "error: --precision %s\n", Err.c_str());
      return 2;
    }
    if (Precision == support::FpPrecision::F32 && IsCrown) {
      std::fprintf(stderr, "error: --precision f32 needs a DeepT verifier "
                           "(fast, precise or combined)\n");
      return 2;
    }
  }
  support::AppendFile ProfileFile;
  if (!ProfileOut.empty()) {
    support::Error Err;
    if (!ProfileFile.open(ProfileOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.what());
      return support::exitCodeFor(Err.code());
    }
  }
  support::AppendFile CertFile;
  if (!CertOut.empty()) {
    support::Error Err;
    if (!CertFile.open(CertOut, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.what());
      return support::exitCodeFor(Err.code());
    }
  }
  verify::PrecisionProfile Prof;
  Prof.Norm = Args.get("norm", "l2");
  Prof.Method = Verifier;
  verify::CertificateBuilder Cert;
  Cert.Data.Method = Verifier;
  Cert.Data.Norm = Args.get("norm", "l2");
  Cert.Data.P = P;

  size_t SentenceIdx = 0;
  // Margin of one query; every DeepT margin computation appends a
  // profile line when --profile-out is set (search mode profiles each
  // probe, so the JSONL shows how precision evolves along the search).
  auto MarginAt = [&](const data::Sentence &S, double R) -> double {
    if (IsCrown) {
      crown::CrownConfig Cfg;
      Cfg.Mode = Verifier == "crown-baf" ? crown::CrownMode::BaF
                                         : crown::CrownMode::Backward;
      crown::CrownOutcome O =
          crown::CrownVerifier(Model, Cfg)
              .certifyMarginLpBall(S.Tokens, Word, P, R, S.Label);
      return O.OutOfMemory ? -HUGE_VAL : O.MarginLowerBound;
    }
    verify::VerifierConfig Cfg;
    Cfg.NoiseReductionBudget = 600;
    if (Verifier == "precise")
      Cfg.Method = zono::DotMethod::Precise;
    if (Verifier == "combined")
      Cfg.PreciseLastLayerOnly = true;
    Cfg.Precision = Precision;
    if (ProfileFile.isOpen())
      Cfg.Profile = &Prof;
    if (CertFile.isOpen())
      Cfg.Certificate = &Cert;
    verify::DeepTVerifier V(Model, Cfg);
    tensor::Matrix X = Model.embed(S.Tokens);
    zono::Zonotope In = zono::Zonotope::lpBallOnRow(X, Word, P, R);
    double M = V.certifyMargin(In, S.Label);
    if (ProfileFile.isOpen()) {
      Prof.Query = "s" + std::to_string(SentenceIdx) + "-w" +
                   std::to_string(Word);
      Prof.Eps = R;
      ProfileFile.append(Prof.toJsonLine() + "\n", false);
    }
    if (CertFile.isOpen()) {
      Cert.Data.Query = "s" + std::to_string(SentenceIdx) + "-w" +
                        std::to_string(Word);
      std::string Line = Cert.Data.toJson() + "\n";
      support::Error Err;
      if (!CertFile.append(Line, false, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.what());
      } else {
        auto &MR = support::Metrics::global();
        MR.counter("cert.emitted").add(1.0);
        MR.counter("cert.bytes").add(static_cast<double>(Line.size()));
      }
    }
    return M;
  };

  support::Rng Rng(Args.getInt("seed", 2));
  size_t Done = 0;
  while (Done < Count) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label || Word >= S.Tokens.size())
      continue;
    ++Done;
    SentenceIdx = Done;
    double Seconds = 0.0;
    if (FixedEps > 0.0) {
      double M;
      {
        support::ScopedAccum A(Seconds);
        M = MarginAt(S, FixedEps);
      }
      std::printf("sentence %zu (%zu words, %s): margin %.5g at %s eps "
                  "%.5g around word %zu -> %s  (%.2f s, verifier %s)\n",
                  Done, S.Tokens.size(), S.Label ? "positive" : "negative",
                  M, Args.get("norm", "l2").c_str(), FixedEps, Word,
                  M > 0.0 ? "CERTIFIED" : "falsified", Seconds,
                  Verifier.c_str());
      continue;
    }
    double R;
    {
      support::ScopedAccum A(Seconds);
      R = verify::certifiedRadius(
          [&](double Radius) { return MarginAt(S, Radius) > 0.0; });
    }
    std::printf("sentence %zu (%zu words, %s): certified %s radius %.5g "
                "around word %zu  (%.2f s, verifier %s)\n",
                Done, S.Tokens.size(), S.Label ? "positive" : "negative",
                Args.get("norm", "l2").c_str(), R, Word, Seconds,
                Verifier.c_str());
  }
  return 0;
}

int cmdSynonym(const ArgParse &Args) {
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "synonym"), Model.Config.EmbedDim));
  verify::VerifierConfig Cfg;
  Cfg.NoiseReductionBudget = 600;
  verify::DeepTVerifier V(Model, Cfg);
  support::Rng Rng(Args.getInt("seed", 3));
  size_t Count = Args.getInt("count", 10);
  size_t Certified = 0, Done = 0;
  while (Done < Count) {
    data::Sentence S = Corpus.sampleSentence(Rng);
    if (Model.classify(S.Tokens) != S.Label)
      continue;
    ++Done;
    size_t Combos = attack::countSynonymCombinations(Corpus, S);
    double Seconds = 0.0;
    bool Ok;
    {
      support::ScopedAccum A(Seconds);
      Ok = V.certifySynonymBox(Corpus, S, S.Label);
    }
    Certified += Ok;
    std::printf("sentence %zu: %zu combinations -> %s (%.2f s)\n", Done,
                Combos, Ok ? "CERTIFIED" : "not certified", Seconds);
  }
  std::printf("certified %zu / %zu sentences\n", Certified, Done);
  return 0;
}

int cmdAttack(const ArgParse &Args) {
  double P = 2.0;
  if (int Rc = parseNormOrFail(Args, P))
    return Rc;
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "sst"), Model.Config.EmbedDim));
  size_t Word = Args.getInt("word", 0);
  support::Rng Rng(Args.getInt("seed", 4));
  data::Sentence S;
  do {
    S = Corpus.sampleSentence(Rng);
  } while (Model.classify(S.Tokens) != S.Label || Word >= S.Tokens.size());
  double Seconds = 0.0;
  double R;
  {
    support::ScopedAccum A(Seconds);
    R = attack::minimalAdversarialRadiusTransformer(Model, S.Tokens, Word,
                                                    P, S.Label);
  }
  std::printf("smallest adversarial %s radius found by PGD around word "
              "%zu: %.5g (%.2f s)\n",
              Args.get("norm", "l2").c_str(), Word, R, Seconds);
  return 0;
}

/// The operator-facing end-of-run health line: degraded IO (certificate
/// write failures, store records dropped for CRC mismatch) and the
/// coordination/retry counters, without scraping --stats-json.
void printHealthLine() {
  support::Metrics &M = support::Metrics::global();
  std::printf("health: %.0f cert write failures, %.0f store crc drops, "
              "%.0f retries, %.0f leases claimed, %.0f leases reclaimed\n",
              M.counterValue("cert.write_failures"),
              M.counterValue("store.crc_dropped"),
              M.counterValue("sched.retries"),
              M.counterValue("coord.leases_claimed"),
              M.counterValue("coord.leases_reclaimed"));
}

int cmdBatch(const ArgParse &Args) {
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  std::string JobsPath = Args.get("jobs");
  std::string OutPath = Args.get("out");
  if (JobsPath.empty() || OutPath.empty()) {
    std::fprintf(stderr,
                 "error: batch needs --jobs FILE.json and --out FILE.jsonl\n");
    return 2;
  }
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "sst"), Model.Config.EmbedDim));

  verify::JobQueue Queue;
  std::string Err;
  if (!verify::JobQueue::fromJsonFile(JobsPath, &Corpus, Queue, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return support::exitCodeFor(support::ErrorCode::BadArgument);
  }

  verify::SchedulerOptions SO;
  long DeadlineMs = 0;
  if (!Args.getIntStrict("deadline-ms", DeadlineMs, &Err) || DeadlineMs < 0) {
    std::fprintf(stderr, "error: %s\n",
                 Err.empty() ? "--deadline-ms must be >= 0" : Err.c_str());
    return 2;
  }
  SO.DefaultDeadlineMs = DeadlineMs;
  long MaxRetries = 0;
  if (!Args.getIntStrict("max-retries", MaxRetries, &Err) || MaxRetries < 0) {
    std::fprintf(stderr, "error: %s\n",
                 Err.empty() ? "--max-retries must be >= 0" : Err.c_str());
    return 2;
  }
  SO.MaxRetries = static_cast<int>(MaxRetries);
  SO.JsonlPath = OutPath;
  SO.Resume = Args.has("resume");
  SO.Fsync = Args.has("fsync");
  SO.ProfileJsonlPath = Args.get("profile-out");
  SO.RecorderDir = Args.get("recorder-dir");
  if (!SO.RecorderDir.empty())
    ::mkdir(SO.RecorderDir.c_str(), 0755); // existing directory is fine
  SO.CertDir = Args.get("cert-dir");
  if (!SO.CertDir.empty())
    ::mkdir(SO.CertDir.c_str(), 0755); // existing directory is fine

  verify::Scheduler Sched(Model, SO);
  support::Timer Timer;
  std::vector<verify::JobResult> Results;
  try {
    Results = Sched.run(Queue);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return support::exitCodeFor(support::codeOf(E));
  }
  double Seconds = Timer.seconds();

  size_t Counts[4] = {0, 0, 0, 0};
  size_t Certified = 0;
  for (const verify::JobResult &R : Results) {
    ++Counts[static_cast<size_t>(R.Status)];
    Certified += R.Certified;
  }
  size_t Ran = Results.size() - Counts[3];
  std::printf("batch: %zu jobs (%zu ok, %zu degraded, %zu error, "
              "%zu skipped), %zu certified\n",
              Results.size(), Counts[0], Counts[1], Counts[2], Counts[3],
              Certified);
  std::printf("%.2f s wall, %.1f jobs/s on %zu threads -> %s\n", Seconds,
              Ran > 0 && Seconds > 0 ? static_cast<double>(Ran) / Seconds
                                     : 0.0,
              support::ThreadPool::global().threadCount(), OutPath.c_str());
  printHealthLine();
  return 0;
}

int runMerge(const std::string &LeaseDir, size_t Ranges,
             const std::string &OutPath) {
  verify::MergeReport Rep;
  support::Error Err;
  if (!verify::mergeShards(LeaseDir, Ranges, OutPath, Rep, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.what());
    return support::exitCodeFor(Err.code() == support::ErrorCode::Ok
                                    ? support::ErrorCode::Internal
                                    : Err.code());
  }
  std::printf("merge: %zu records from %zu shards -> %s (%zu duplicates "
              "collapsed, %zu crc-dropped, %zu malformed dropped)\n",
              Rep.Records, Rep.Shards, OutPath.c_str(),
              Rep.DuplicatesCollapsed, Rep.DroppedCrc, Rep.DroppedMalformed);
  return 0;
}

int cmdMerge(const ArgParse &Args) {
  std::string LeaseDir = Args.get("lease-dir");
  std::string OutPath = Args.get("out");
  if (LeaseDir.empty() || OutPath.empty()) {
    std::fprintf(stderr,
                 "error: merge needs --lease-dir DIR and --out FILE.jsonl\n");
    return 2;
  }
  std::string Err;
  long Ranges = 0;
  if (!Args.getIntStrict("ranges", Ranges, &Err) || Ranges < 0) {
    std::fprintf(stderr, "error: %s\n",
                 Err.empty() ? "--ranges must be >= 0" : Err.c_str());
    return 2;
  }
  return runMerge(LeaseDir, static_cast<size_t>(Ranges), OutPath);
}

/// The raw command line, stashed by main() so the --workers fork path can
/// re-exec this binary with a per-child worker id.
int GArgc = 0;
const char *const *GArgv = nullptr;

int cmdWork(const ArgParse &Args) {
  std::string JobsPath = Args.get("jobs");
  std::string LeaseDir = Args.get("lease-dir");
  if (JobsPath.empty() || LeaseDir.empty()) {
    std::fprintf(
        stderr,
        "error: work needs --jobs FILE.json and --lease-dir DIR\n");
    return 2;
  }
  std::string Err;
  long Workers = 1, Ranges = 8, HeartbeatMs = 1000, StaleMs = 0,
       MaxRetries = 2, DeadlineMs = 0;
  struct IntFlag {
    const char *Name;
    long *Out;
    long Min;
  } Flags[] = {{"workers", &Workers, 1},      {"ranges", &Ranges, 1},
               {"heartbeat-ms", &HeartbeatMs, 1}, {"stale-ms", &StaleMs, 0},
               {"max-retries", &MaxRetries, 0},
               {"deadline-ms", &DeadlineMs, 0}};
  for (const IntFlag &F : Flags) {
    if (!Args.getIntStrict(F.Name, *F.Out, &Err) || *F.Out < F.Min) {
      if (Err.empty())
        Err = "--" + std::string(F.Name) + " must be >= " +
              std::to_string(F.Min);
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }
  ::mkdir(LeaseDir.c_str(), 0755); // existing directory is fine
  std::string OutPath = Args.get("out");

  if (Workers > 1) {
    // fork + execv of this binary per worker: exec resets the process, so
    // the children never inherit the parent's (possibly threaded) state.
    std::string BaseId = Args.get("worker-id");
    if (BaseId.empty())
      BaseId = "w" + std::to_string(static_cast<long>(::getpid()));
    std::vector<std::string> Base;
    for (int I = 0; I < GArgc; ++I) {
      std::string A = GArgv[I];
      // Children are single workers with their own ids; the merge (--out)
      // stays with the parent.
      if (A == "--workers" || A == "--worker-id" || A == "--out") {
        ++I;
        continue;
      }
      Base.push_back(A);
    }
    std::vector<pid_t> Pids;
    for (long K = 0; K < Workers; ++K) {
      pid_t Pid = ::fork();
      if (Pid < 0) {
        std::perror("fork");
        break;
      }
      if (Pid == 0) {
        std::vector<std::string> ChildArgs = Base;
        ChildArgs.push_back("--workers");
        ChildArgs.push_back("1");
        ChildArgs.push_back("--worker-id");
        ChildArgs.push_back(BaseId + "-" + std::to_string(K));
        std::vector<char *> Cv;
        for (std::string &S : ChildArgs)
          Cv.push_back(const_cast<char *>(S.c_str()));
        Cv.push_back(nullptr);
        ::execv("/proc/self/exe", Cv.data());
        ::_exit(127);
      }
      Pids.push_back(Pid);
    }
    int Worst = Pids.empty() ? 5 : 0;
    for (pid_t Pid : Pids) {
      int St = 0;
      ::waitpid(Pid, &St, 0);
      int Rc = WIFEXITED(St) ? WEXITSTATUS(St)
                             : 128 + (WIFSIGNALED(St) ? WTERMSIG(St) : 0);
      if (Rc > Worst)
        Worst = Rc;
    }
    // A failed child is not a failed batch: if every range still reached
    // its done marker (survivors picked up the crashed worker's ranges),
    // the batch converged.
    bool AllDone = true;
    for (long R = 0; R < Ranges; ++R)
      if (!support::fileExists(
              support::donePath(LeaseDir, static_cast<size_t>(R))))
        AllDone = false;
    if (!AllDone)
      return Worst ? Worst : support::exitCodeFor(
                                 support::ErrorCode::Internal);
    if (Worst)
      std::fprintf(stderr,
                   "warning: a worker exited with status %d but the batch "
                   "converged\n",
                   Worst);
    if (!OutPath.empty())
      return runMerge(LeaseDir, static_cast<size_t>(Ranges), OutPath);
    return 0;
  }

  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  data::SyntheticCorpus Corpus(
      corpusConfig(Args.get("corpus", "sst"), Model.Config.EmbedDim));
  verify::JobQueue Queue;
  if (!verify::JobQueue::fromJsonFile(JobsPath, &Corpus, Queue, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return support::exitCodeFor(support::ErrorCode::BadArgument);
  }

  verify::CoordinationOptions CO;
  CO.LeaseDir = LeaseDir;
  CO.Ranges = static_cast<size_t>(Ranges);
  CO.WorkerId = Args.get("worker-id");
  CO.HeartbeatMs = HeartbeatMs;
  CO.StaleAfterMs = StaleMs;
  CO.Sched.DefaultDeadlineMs = DeadlineMs;
  CO.Sched.Fsync = Args.has("fsync");
  CO.Sched.MaxRetries = static_cast<int>(MaxRetries);
  CO.Sched.RecorderDir = Args.get("recorder-dir");
  if (!CO.Sched.RecorderDir.empty())
    ::mkdir(CO.Sched.RecorderDir.c_str(), 0755);
  CO.Sched.CertDir = Args.get("cert-dir");
  if (!CO.Sched.CertDir.empty())
    ::mkdir(CO.Sched.CertDir.c_str(), 0755);

  support::Timer Timer;
  verify::Worker Worker(Model, Queue, CO);
  verify::WorkerReport Rep = Worker.run();
  std::printf("work: %zu ranges completed, %zu leases reclaimed, %zu jobs "
              "(%zu ok, %zu degraded, %zu error, %zu skipped), %zu "
              "certified, %.2f s wall\n",
              Rep.RangesCompleted, Rep.LeasesReclaimed, Rep.Jobs, Rep.JobsOk,
              Rep.JobsDegraded, Rep.JobsError, Rep.JobsSkipped, Rep.Certified,
              Timer.seconds());
  printHealthLine();
  if (!OutPath.empty())
    return runMerge(LeaseDir, CO.Ranges, OutPath);
  return 0;
}

int cmdInfo(const ArgParse &Args) {
  nn::TransformerModel Model;
  if (int Rc = loadModelOrFail(Args, Model))
    return Rc;
  const nn::TransformerConfig &C = Model.Config;
  size_t Params = 0;
  for (const tensor::Matrix *M : Model.parameters())
    Params += M->size();
  std::printf("layers:        %zu\n", C.NumLayers);
  std::printf("embedding dim: %zu\n", C.EmbedDim);
  std::printf("heads:         %zu (head dim %zu)\n", C.NumHeads,
              C.headDim());
  std::printf("hidden dim:    %zu\n", C.HiddenDim);
  std::printf("layer norm:    %s\n",
              C.LayerNormStdDiv ? "standard (with std division)"
                                : "paper default (no std division)");
  std::printf("vocab size:    %zu\n", C.VocabSize);
  std::printf("parameters:    %zu (plus frozen embeddings)\n", Params);
  return 0;
}

int cmdMetrics(const ArgParse &Args) {
  std::string From = Args.get("from");
  if (From.empty()) {
    // The live registry of this process -- the same text a serving
    // daemon would mount at /metrics.
    std::fputs(support::prometheusText(support::Metrics::global()).c_str(),
               stdout);
    return 0;
  }
  std::ifstream In(From, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", From.c_str());
    return support::exitCodeFor(support::ErrorCode::IoError);
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  support::JsonValue Doc;
  std::string Err;
  if (!support::parseJson(Buf.str(), Doc, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", From.c_str(), Err.c_str());
    return support::exitCodeFor(support::ErrorCode::BadArgument);
  }
  std::string Text;
  if (!support::prometheusFromStatsJson(Doc, Text, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", From.c_str(), Err.c_str());
    return support::exitCodeFor(support::ErrorCode::BadArgument);
  }
  std::fputs(Text.c_str(), stdout);
  return 0;
}

int dispatch(const std::string &Cmd, const ArgParse &Args) {
  if (Cmd == "train")
    return cmdTrain(Args);
  if (Cmd == "certify")
    return cmdCertify(Args);
  if (Cmd == "synonym")
    return cmdSynonym(Args);
  if (Cmd == "attack")
    return cmdAttack(Args);
  if (Cmd == "batch")
    return cmdBatch(Args);
  if (Cmd == "work")
    return cmdWork(Args);
  if (Cmd == "merge")
    return cmdMerge(Args);
  if (Cmd == "metrics")
    return cmdMetrics(Args);
  if (Cmd == "info")
    return cmdInfo(Args);
  return usage();
}

/// Writes the metrics registry (plus which command ran and the pool's
/// thread count) to \p Path.
bool writeStatsJson(const std::string &Path, const std::string &Cmd) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << "{\"command\":\"" << support::jsonEscape(Cmd) << "\",\"threads\":"
      << support::ThreadPool::global().threadCount() << ",\"isa\":\""
      << tensor::isaName(tensor::currentIsa())
      << "\",\"metrics\":" << support::Metrics::global().toJson() << "}\n";
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  GArgc = Argc;
  GArgv = Argv;
  ArgParse Args(Argc, Argv, {"std-layernorm", "robust", "resume", "fsync"});
  if (Args.positional().empty())
    return usage();
  const std::string &Cmd = Args.positional().front();

  std::string TraceOut = Args.get("trace-out");
  std::string StatsOut = Args.get("stats-json");
  if (!TraceOut.empty())
    support::Trace::setEnabled(true);
  if (Args.has("threads")) {
    size_t Threads = 0;
    std::string Err;
    if (!support::parseThreadCount(Args.get("threads"), Threads, &Err)) {
      std::fprintf(stderr, "error: --threads %s\n", Err.c_str());
      return 2;
    }
    support::ThreadPool::global().setThreadCount(Threads);
  }
  if (Args.has("isa")) {
    tensor::Isa I = tensor::Isa::Scalar;
    std::string Err;
    if (!tensor::parseIsa(Args.get("isa"), I, &Err)) {
      std::fprintf(stderr, "error: --isa %s\n", Err.c_str());
      return 2;
    }
    if (!tensor::setIsa(I, &Err)) {
      std::fprintf(stderr, "error: --isa %s\n", Err.c_str());
      return 2;
    }
  }

  int Rc;
  try {
    Rc = dispatch(Cmd, Args);
  } catch (const std::exception &E) {
    // Uncaught failures still leave with their taxonomy's exit class
    // (5 for anything unclassified) instead of a crash.
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = support::exitCodeFor(support::codeOf(E));
  }

  if (!TraceOut.empty()) {
    if (support::Trace::writeChromeJson(TraceOut))
      std::fprintf(stderr, "wrote %zu trace events to %s\n%s",
                   support::Trace::eventCount(), TraceOut.c_str(),
                   support::Trace::selfTimeSummary().c_str());
    else {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   TraceOut.c_str());
      Rc = Rc ? Rc : 1;
    }
  }
  if (!StatsOut.empty()) {
    if (!writeStatsJson(StatsOut, Cmd)) {
      std::fprintf(stderr, "error: cannot write stats to %s\n",
                   StatsOut.c_str());
      Rc = Rc ? Rc : 1;
    }
  }
  return Rc;
}
