//===- crown/CrownVerifier.h - CROWN baseline verifiers --------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two baseline verifiers the paper compares against (Shi et al.
/// 2020): CROWN-Backward (full backsubstitution) and CROWN-BaF
/// (backward-and-forward: backsubstitution stopped after a fixed number
/// of layers, concretized with forward interval bounds).
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_CROWN_CROWNVERIFIER_H
#define DEEPT_CROWN_CROWNVERIFIER_H

#include "crown/Backward.h"
#include "crown/Forward.h"
#include "crown/TransformerGraph.h"
#include "data/SyntheticCorpus.h"

namespace deept {
namespace crown {

enum class CrownMode { Backward, BaF };

struct CrownConfig {
  CrownMode Mode = CrownMode::BaF;
  /// Byte budget for backward coefficient matrices; 0 = unlimited.
  /// Models the paper's GPU memory exhaustion (Table 3).
  size_t MemoryBudgetBytes = 0;
};

struct CrownOutcome {
  double MarginLowerBound = 0.0;
  bool OutOfMemory = false;
  size_t PeakBytes = 0;
  /// Cumulative coefficient allocation volume of the whole verification
  /// (the depth-growing quantity the memory budget is checked against).
  size_t TotalBytes = 0;
};

/// CROWN verification of a Transformer model.
class CrownVerifier {
public:
  CrownVerifier(const nn::TransformerModel &Model,
                CrownConfig Config = CrownConfig())
      : Model(Model), Config(Config) {}

  const CrownConfig &config() const { return Config; }
  CrownConfig &config() { return Config; }

  /// Threat model T1 margin bound.
  CrownOutcome certifyMarginLpBall(const std::vector<size_t> &Tokens,
                                   size_t Word, double P, double Radius,
                                   size_t TrueClass) const;

  bool certifyLpBall(const std::vector<size_t> &Tokens, size_t Word,
                     double P, double Radius, size_t TrueClass) const {
    CrownOutcome O = certifyMarginLpBall(Tokens, Word, P, Radius, TrueClass);
    return !O.OutOfMemory && O.MarginLowerBound > 0.0;
  }

  /// Threat model T2 margin bound (synonym box).
  CrownOutcome certifyMarginSynonymBox(const data::SyntheticCorpus &Corpus,
                                       const data::Sentence &S,
                                       size_t TrueClass) const;

  bool certifySynonymBox(const data::SyntheticCorpus &Corpus,
                         const data::Sentence &S, size_t TrueClass) const {
    CrownOutcome O = certifyMarginSynonymBox(Corpus, S, TrueClass);
    return !O.OutOfMemory && O.MarginLowerBound > 0.0;
  }

private:
  CrownOutcome run(BuiltGraph &&Built) const;

  const nn::TransformerModel &Model;
  CrownConfig Config;
};

} // namespace crown
} // namespace deept

#endif // DEEPT_CROWN_CROWNVERIFIER_H
