//===- support/ArgParse.h - Minimal command line parsing -------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small `--flag value` / `--switch` command line parser for the tools
/// and examples. Flags may appear in any order; positional arguments are
/// collected separately.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_ARGPARSE_H
#define DEEPT_SUPPORT_ARGPARSE_H

#include <map>
#include <string>
#include <vector>

namespace deept {
namespace support {

/// Parsed command line: `prog pos0 --key value --switch pos1`.
class ArgParse {
public:
  /// Parses argv[1..argc). \p Switches lists flags that take no value;
  /// every other `--flag` consumes the following token as its value
  /// unless that token is itself a flag (see valuelessFlags()).
  ArgParse(int Argc, const char *const *Argv,
           const std::vector<std::string> &Switches = {});

  /// True when `--name` appeared (as a switch or with a value).
  bool has(const std::string &Name) const;

  /// Value of `--name`, or \p Default when absent.
  std::string get(const std::string &Name,
                  const std::string &Default = "") const;

  /// Numeric value of `--name`, or \p Default when absent. The whole
  /// value must parse (a decimal integer, or a finite floating-point
  /// number); anything else -- `abc`, `0.0x`, an empty value -- throws
  /// support::Error(BadArgument) naming the flag, so a typo fails loudly
  /// instead of silently becoming 0 or the default.
  long getInt(const std::string &Name, long Default) const;
  double getDouble(const std::string &Name, double Default) const;

  /// getInt() for counts and indices: a negative value throws
  /// BadArgument naming the flag instead of wrapping to a huge size_t.
  size_t getCount(const std::string &Name, size_t Default) const;

  /// Positional arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Flags that were provided but never queried (typo detection).
  std::vector<std::string>
  unknownFlags(const std::vector<std::string> &Known) const;

  /// Non-switch flags given without a value: a trailing `--eps`, an
  /// `--eps` directly followed by another flag, or `--out=`.
  const std::vector<std::string> &valuelessFlags() const { return Valueless; }

private:
  std::map<std::string, std::string> Values;
  std::vector<std::string> Positional;
  std::vector<std::string> Valueless;
};

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_ARGPARSE_H
