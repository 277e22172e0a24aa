//===- support/ArgParse.cpp -----------------------------------*- C++ -*-===//

#include "support/ArgParse.h"

#include "support/Error.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace deept::support;

ArgParse::ArgParse(int Argc, const char *const *Argv,
                   const std::vector<std::string> &Switches) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(std::move(Arg));
      continue;
    }
    std::string Name = Arg.substr(2);
    // --key=value form.
    auto Eq = Name.find('=');
    if (Eq != std::string::npos) {
      std::string Key = Name.substr(0, Eq);
      if (Eq + 1 == Name.size())
        Valueless.push_back(Key);
      Values[Key] = Name.substr(Eq + 1);
      continue;
    }
    if (std::find(Switches.begin(), Switches.end(), Name) != Switches.end()) {
      Values[Name] = "";
      continue;
    }
    if (I + 1 >= Argc || std::string(Argv[I + 1]).rfind("--", 0) == 0) {
      Valueless.push_back(Name);
      Values[Name] = "";
      continue;
    }
    Values[Name] = Argv[++I];
  }
}

bool ArgParse::has(const std::string &Name) const {
  return Values.count(Name) > 0;
}

std::string ArgParse::get(const std::string &Name,
                          const std::string &Default) const {
  auto It = Values.find(Name);
  return It == Values.end() ? Default : It->second;
}

namespace {

/// Parses all of \p Text with \p Convert (a strtol/strtod wrapper),
/// throwing BadArgument naming `--Name` unless every character is
/// consumed and the result is in range.
template <typename T, typename ConvertFn>
T parseWhole(const std::string &Name, const std::string &Text,
             const char *Expected, ConvertFn Convert) {
  char *End = nullptr;
  errno = 0;
  T V = Convert(Text.c_str(), &End);
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])) ||
      End != Text.c_str() + Text.size() || errno == ERANGE ||
      !std::isfinite(static_cast<double>(V)))
    throw Error(ErrorCode::BadArgument, "cli.args",
                "--" + Name + " expects " + Expected + ", got '" + Text +
                    "'");
  return V;
}

} // namespace

long ArgParse::getInt(const std::string &Name, long Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  return parseWhole<long>(Name, It->second, "an integer",
                          [](const char *S, char **End) {
                            return std::strtol(S, End, 10);
                          });
}

size_t ArgParse::getCount(const std::string &Name, size_t Default) const {
  long V = getInt(Name, static_cast<long>(Default));
  if (V < 0)
    throw Error(ErrorCode::BadArgument, "cli.args",
                "--" + Name + " expects a non-negative integer, got " +
                    std::to_string(V));
  return static_cast<size_t>(V);
}

double ArgParse::getDouble(const std::string &Name, double Default) const {
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  return parseWhole<double>(Name, It->second, "a finite number",
                            [](const char *S, char **End) {
                              return std::strtod(S, End);
                            });
}

std::vector<std::string>
ArgParse::unknownFlags(const std::vector<std::string> &Known) const {
  std::vector<std::string> Out;
  for (const auto &[Name, Value] : Values)
    if (std::find(Known.begin(), Known.end(), Name) == Known.end())
      Out.push_back(Name);
  return Out;
}
