//===- tests/argparse_test.cpp ---------------------------------*- C++ -*-===//

#include "support/ArgParse.h"
#include "support/Error.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

using namespace deept::support;

namespace {

ArgParse parse(std::initializer_list<const char *> Argv,
               const std::vector<std::string> &Switches = {}) {
  std::vector<const char *> V = Argv;
  return ArgParse(static_cast<int>(V.size()), V.data(), Switches);
}

} // namespace

TEST(ArgParse, PositionalAndFlags) {
  ArgParse A = parse({"prog", "train", "--out", "m.dptm", "--layers", "3"});
  ASSERT_EQ(A.positional().size(), 1u);
  EXPECT_EQ(A.positional()[0], "train");
  EXPECT_EQ(A.get("out"), "m.dptm");
  EXPECT_EQ(A.getInt("layers", 0), 3);
  EXPECT_FALSE(A.has("missing"));
  EXPECT_EQ(A.get("missing", "fallback"), "fallback");
}

TEST(ArgParse, SwitchesConsumeNoValue) {
  ArgParse A = parse({"prog", "train", "--robust", "positional2"},
                     {"robust"});
  EXPECT_TRUE(A.has("robust"));
  ASSERT_EQ(A.positional().size(), 2u);
  EXPECT_EQ(A.positional()[1], "positional2");
  EXPECT_TRUE(A.valuelessFlags().empty());
}

TEST(ArgParse, EqualsForm) {
  ArgParse A = parse({"prog", "--norm=linf", "--eps=0.25"});
  EXPECT_EQ(A.get("norm"), "linf");
  EXPECT_DOUBLE_EQ(A.getDouble("eps", 0.0), 0.25);
}

// A non-switch flag directly followed by another flag has no value: it
// is reported (the CLI rejects it) instead of reading as a switch.
TEST(ArgParse, FlagBeforeAnotherFlagActsAsSwitch) {
  ArgParse A = parse({"prog", "--verbose", "--out", "x"});
  EXPECT_EQ(A.valuelessFlags(), std::vector<std::string>{"verbose"});
  EXPECT_EQ(A.get("out"), "x");
}

TEST(ArgParse, TrailingFlagWithoutValue) {
  ArgParse A = parse({"prog", "--out=", "--flag"});
  EXPECT_EQ(A.valuelessFlags(), (std::vector<std::string>{"out", "flag"}));
}

TEST(ArgParse, IntAndDoubleDefaults) {
  ArgParse A = parse({"prog", "--n", "42", "--x", "2.5"});
  EXPECT_EQ(A.getInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(A.getDouble("x", 0.0), 2.5);
  EXPECT_EQ(A.getInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(A.getDouble("absent", 1.5), 1.5);
}

TEST(ArgParse, UnknownFlagDetection) {
  ArgParse A = parse({"prog", "--out", "x", "--typo", "y"});
  auto Unknown = A.unknownFlags({"out"});
  ASSERT_EQ(Unknown.size(), 1u);
  EXPECT_EQ(Unknown[0], "typo");
}

// getInt / getDouble are strict: the whole value must parse.
TEST(ArgParse, GetIntStrictAcceptsWellFormedIntegers) {
  ArgParse A = parse({"prog", "--deadline-ms", "250", "--neg", "-3"});
  EXPECT_EQ(A.getInt("deadline-ms", 7), 250);
  EXPECT_EQ(A.getInt("neg", 7), -3);
  // Absent flags return the default.
  EXPECT_EQ(A.getInt("absent", 42), 42);
}

TEST(ArgParse, GetIntStrictRejectsMalformedValues) {
  ArgParse A = parse({"prog", "--a", "12x", "--b", "abc", "--c", "1.5",
                      "--d", "", "--eps", "0.0x"});
  auto ExpectBadArgument = [](auto Read, const std::string &Text) {
    try {
      Read();
      ADD_FAILURE() << "accepted " << Text;
    } catch (const Error &E) {
      EXPECT_EQ(E.code(), ErrorCode::BadArgument);
      EXPECT_NE(std::string(E.what()).find(Text), std::string::npos)
          << E.what();
    }
  };
  for (const char *Name : {"a", "b", "c", "d"})
    ExpectBadArgument([&] { A.getInt(Name, 0); },
                      "--" + std::string(Name) + " expects an integer");
  ExpectBadArgument([&] { A.getDouble("eps", 0.0); }, "--eps expects");
}

TEST(ArgParse, GetCountRejectsNegativeValues) {
  ArgParse A = parse({"prog", "--word", "-1", "--count", "7", "--n", "0"});
  EXPECT_EQ(A.getCount("count", 1), 7u);
  EXPECT_EQ(A.getCount("n", 1), 0u);
  EXPECT_EQ(A.getCount("absent", 3), 3u);
  try {
    A.getCount("word", 0);
    ADD_FAILURE() << "accepted --word -1";
  } catch (const Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::BadArgument);
    EXPECT_NE(std::string(E.what()).find("--word expects a non-negative"),
              std::string::npos)
        << E.what();
  }
}

TEST(ThreadCount, ParseAcceptsPositiveIntegers) {
  size_t Out = 0;
  EXPECT_TRUE(deept::support::parseThreadCount("1", Out));
  EXPECT_EQ(Out, 1u);
  EXPECT_TRUE(deept::support::parseThreadCount("16", Out));
  EXPECT_EQ(Out, 16u);
}

TEST(ThreadCount, ParseRejectsZeroNegativeAndGarbage) {
  for (const char *Bad : {"0", "-1", "-8", "two", "4x", "1.5", "", " 4"}) {
    size_t Out = 99;
    std::string Err;
    EXPECT_FALSE(deept::support::parseThreadCount(Bad, Out, &Err)) << Bad;
    EXPECT_NE(Err.find("positive integer"), std::string::npos) << Err;
  }
}
