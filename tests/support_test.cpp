//===- tests/support_test.cpp ---------------------------------*- C++ -*-===//

#include "support/Crc.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

using namespace deept::support;

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDiff = false;
  for (int I = 0; I < 16; ++I)
    AnyDiff |= A.next() != B.next();
  EXPECT_TRUE(AnyDiff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.uniform();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double V = R.uniform(-3.0, 5.0);
    EXPECT_GE(V, -3.0);
    EXPECT_LT(V, 5.0);
  }
}

TEST(Rng, UniformIntUnbiasedSupport) {
  Rng R(13);
  std::vector<int> Counts(10, 0);
  for (int I = 0; I < 10000; ++I)
    Counts[R.uniformInt(10)]++;
  for (int C : Counts)
    EXPECT_GT(C, 700); // each bucket near 1000
}

TEST(Rng, GaussianMoments) {
  Rng R(99);
  double Sum = 0.0, SumSq = 0.0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double V = R.gaussian();
    Sum += V;
    SumSq += V * V;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.05);
  EXPECT_NEAR(SumSq / N, 1.0, 0.05);
}

TEST(Rng, ForkDecorrelates) {
  Rng A(5);
  Rng B = A.fork();
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, ShufflePreservesElements) {
  Rng R(3);
  std::vector<int> V = {1, 2, 3, 4, 5, 6};
  auto Sorted = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Sorted);
}

TEST(Table, FormatRadiusStyles) {
  EXPECT_EQ(formatRadius(0.0), "0.000");
  EXPECT_EQ(formatRadius(1.808), "1.808");
  EXPECT_EQ(formatRadius(0.0064), "6.4e-03");
  EXPECT_EQ(formatFixed(28.83, 1), "28.8");
}

TEST(Table, RendersAlignedRows) {
  Table T({"M", "lp", "Avg"});
  T.addRow({"3", "l1", "1.808"});
  T.addRow({"12", "linf", "0.011"});
  std::string S = T.render();
  EXPECT_NE(S.find("M"), std::string::npos);
  EXPECT_NE(S.find("1.808"), std::string::npos);
  EXPECT_NE(S.find("linf"), std::string::npos);
  // Header separator present.
  EXPECT_NE(S.find("---"), std::string::npos);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer T;
  volatile double X = 0;
  for (int I = 0; I < 1000; ++I)
    X = X + std::sqrt(static_cast<double>(I));
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(Timer, ScopedAccumAddsElapsedTime) {
  double Acc = 0.0;
  {
    ScopedAccum A(Acc);
    volatile double X = 0;
    for (int I = 0; I < 1000; ++I)
      X = X + std::sqrt(static_cast<double>(I));
    EXPECT_DOUBLE_EQ(Acc, 0.0); // only added at scope exit
  }
  EXPECT_GT(Acc, 0.0);
  double First = Acc;
  {
    ScopedAccum A(Acc);
  }
  EXPECT_GE(Acc, First); // accumulates across scopes
}

//===----------------------------------------------------------------------===//
// JSON non-finite handling
//===----------------------------------------------------------------------===//

TEST(Json, NumberEmitsNullForNonFinite) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(jsonNumber(NaN), "null");
  EXPECT_EQ(jsonNumber(Inf), "null");
  EXPECT_EQ(jsonNumber(-Inf), "null");
  EXPECT_EQ(jsonNumber(1.5), "1.5");
  // The emitted token always embeds into a parseable document -- the
  // invariant every store writer relies on.
  JsonValue Doc;
  EXPECT_TRUE(parseJson("{\"margin\":" + jsonNumber(NaN) + "}", Doc));
  EXPECT_TRUE(parseJson("{\"margin\":" + jsonNumber(-Inf) + "}", Doc));
}

namespace {

/// A random double for the formatting and parsing sweeps: every fourth
/// draw is a raw bit pattern, and the others force the exponent field to
/// zero (subnormals and +-0), to its largest finite value, or near the
/// unit exponent.
double sweepDouble(Rng &R, int I) {
  uint64_t Bits = R.next();
  const uint64_t ExpMask = uint64_t(0x7FF) << 52;
  switch (I % 4) {
  case 1:
    Bits &= ~ExpMask;
    break;
  case 2:
    Bits = (Bits & ~ExpMask) | uint64_t(0x7FE) << 52;
    break;
  case 3:
    Bits = (Bits & ~ExpMask) | (uint64_t(1023 - 40 + R.uniformInt(80)) << 52);
    break;
  }
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

} // namespace

TEST(Json, NumberIsByteIdenticalToPrintf17g) {
  // Certificates are compared byte for byte across versions, so the
  // number formatter must stay exactly printf's "%.17g".
  std::vector<double> Edge = {0.0,
                              -0.0,
                              std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min(),
                              std::numeric_limits<double>::max(),
                              -std::numeric_limits<double>::max(),
                              1e16,
                              1e17,
                              0.1,
                              1.0 / 3.0,
                              123456789012345678.0};
  Rng R(20261019);
  char Buf[40];
  std::string Out;
  size_t Checked = 0;
  for (int I = 0; I < (1 << 20) + static_cast<int>(Edge.size()); ++I) {
    double D = I < static_cast<int>(Edge.size()) ? Edge[I] : sweepDouble(R, I);
    if (!std::isfinite(D)) {
      EXPECT_EQ(jsonNumber(D), "null");
      continue;
    }
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    Out.clear();
    appendJsonNumber(Out, D);
    ASSERT_EQ(Out, Buf) << "draw " << I;
    ++Checked;
  }
  EXPECT_GE(Checked, 1000000u);
}

TEST(Json, ParsedNumbersAreBitIdenticalToStrtod) {
  auto Bits = [](double D) {
    uint64_t B;
    std::memcpy(&B, &D, sizeof(B));
    return B;
  };
  // Tokens the fast path cannot take: overflow and underflow, where
  // strtod's +-inf / +-0 must win, and the subnormal boundary.
  std::vector<std::string> Tokens = {"1e400", "-1e400", "1e-400", "-1e-400",
                                     "4.9406564584124654e-324",
                                     "2.4703282292062328e-324",
                                     "2.2250738585072011e-308",
                                     "1.7976931348623158e308",
                                     "1.7976931348623159e308", "0", "-0",
                                     "0.1", "123456789012345678901234567890"};
  Rng R(7);
  char Buf[40];
  for (int I = 0; I < 200000; ++I) {
    double D = sweepDouble(R, I);
    if (!std::isfinite(D))
      continue;
    // Full round-trip precision and shorter, inexact forms.
    std::snprintf(Buf, sizeof(Buf), I % 2 ? "%.17g" : "%.6e", D);
    Tokens.push_back(Buf);
  }
  JsonValue Doc;
  for (const std::string &T : Tokens) {
    double Want = std::strtod(T.c_str(), nullptr);
    // Alone (the token ends the text) and inside an array.
    ASSERT_TRUE(parseJson(T, Doc)) << T;
    ASSERT_EQ(Bits(Doc.NumberVal), Bits(Want)) << T;
    ASSERT_TRUE(parseJson("[" + T + "]", Doc)) << T;
    ASSERT_EQ(Bits(Doc.Items.at(0).NumberVal), Bits(Want)) << T;
  }
  ASSERT_TRUE(parseJson("[1e400,-1e400,1e-400]", Doc));
  EXPECT_EQ(Doc.Items[0].NumberVal, std::numeric_limits<double>::infinity());
  EXPECT_EQ(Doc.Items[1].NumberVal, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Doc.Items[2].NumberVal, 0.0);
}

TEST(Json, ParserRejectsBareNonFiniteTokens) {
  // JSON has no non-finite literals; a writer that leaked one must be
  // caught by every reader, not silently mis-parsed.
  JsonValue Doc;
  std::string Err;
  EXPECT_FALSE(parseJson("{\"x\":nan}", Doc, &Err));
  EXPECT_FALSE(parseJson("{\"x\":inf}", Doc));
  EXPECT_FALSE(parseJson("{\"x\":-inf}", Doc));
  EXPECT_FALSE(parseJson("[Infinity]", Doc));
  EXPECT_FALSE(parseJson("[NaN]", Doc));
}

//===----------------------------------------------------------------------===//
// Error taxonomy
//===----------------------------------------------------------------------===//

TEST(Error, NamesAreStableSnakeCase) {
  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::ModelCorrupt), "model_corrupt");
  EXPECT_STREQ(errorCodeName(ErrorCode::StoreCorrupt), "store_corrupt");
  EXPECT_STREQ(errorCodeName(ErrorCode::UnsoundAbstraction),
               "unsound_abstraction");
  EXPECT_STREQ(errorCodeName(ErrorCode::FaultInjected), "fault_injected");
  EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
               "deadline_exceeded");
}

TEST(Error, ExitCodeClasses) {
  EXPECT_EQ(exitCodeFor(ErrorCode::Ok), 0);
  EXPECT_EQ(exitCodeFor(ErrorCode::BadArgument), 2);
  EXPECT_EQ(exitCodeFor(ErrorCode::JobInvalid), 2);
  EXPECT_EQ(exitCodeFor(ErrorCode::IoError), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::ModelNotFound), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::ModelCorrupt), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::StoreCorrupt), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::DeadlineExceeded), 4);
  EXPECT_EQ(exitCodeFor(ErrorCode::OutOfMemory), 5);
  EXPECT_EQ(exitCodeFor(ErrorCode::UnsoundAbstraction), 5);
  EXPECT_EQ(exitCodeFor(ErrorCode::Internal), 5);
}

TEST(Error, WhatEmbedsCodeSiteAndMessage) {
  Error E(ErrorCode::StoreCorrupt, "store.open", "boom happened");
  std::string W = E.what();
  EXPECT_NE(W.find("store_corrupt"), std::string::npos) << W;
  EXPECT_NE(W.find("store.open"), std::string::npos) << W;
  EXPECT_NE(W.find("boom happened"), std::string::npos) << W;
  EXPECT_EQ(E.code(), ErrorCode::StoreCorrupt);
  EXPECT_EQ(E.site(), "store.open");
  // The default-constructed out-param form means "no error yet".
  Error None;
  EXPECT_EQ(None.code(), ErrorCode::Ok);
}

TEST(Error, CodeOfMapsExceptions) {
  EXPECT_EQ(codeOf(Error(ErrorCode::JobInvalid, "sched.job", "x")),
            ErrorCode::JobInvalid);
  EXPECT_EQ(codeOf(std::bad_alloc()), ErrorCode::OutOfMemory);
  EXPECT_EQ(codeOf(std::runtime_error("anything")), ErrorCode::Internal);
}

//===----------------------------------------------------------------------===//
// CRC-32
//===----------------------------------------------------------------------===//

namespace {

/// The bytewise reference the slice-by-8 update must reproduce.
uint32_t referenceCrc32(const unsigned char *P, size_t N) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I < N; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

} // namespace

TEST(Crc, CheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc, EverySplitMatchesOneShot) {
  Rng R(3);
  std::vector<unsigned char> Buf(96);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(R.next());
  // Unaligned starts, every total length across several 8-byte strides,
  // and every two-way split point.
  for (size_t Start = 0; Start < 8; ++Start) {
    for (size_t Len = 0; Len + Start <= Buf.size() && Len <= 40; ++Len) {
      const unsigned char *P = Buf.data() + Start;
      uint32_t Want = referenceCrc32(P, Len);
      ASSERT_EQ(crc32(P, Len), Want) << "start " << Start << " len " << Len;
      for (size_t Cut = 0; Cut <= Len; ++Cut) {
        Crc32 C;
        C.update(P, Cut);
        C.update(P + Cut, Len - Cut);
        ASSERT_EQ(C.value(), Want)
            << "start " << Start << " len " << Len << " cut " << Cut;
      }
    }
  }
  // Many updates with chunk lengths cycling through 0..17.
  for (size_t Start = 0; Start < 8; ++Start) {
    Crc32 C;
    size_t Pos = Start, Chunk = 0;
    while (Pos < Buf.size()) {
      size_t N = std::min(Chunk % 18, Buf.size() - Pos);
      C.update(Buf.data() + Pos, N);
      Pos += N;
      ++Chunk;
    }
    EXPECT_EQ(C.value(),
              referenceCrc32(Buf.data() + Start, Buf.size() - Start));
  }
}
