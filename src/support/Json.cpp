//===- support/Json.cpp ---------------------------------------*- C++ -*-===//

#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

using namespace deept;
using namespace deept::support;

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Recursive-descent parser over a string view. Nesting is depth-limited
/// so adversarial input cannot overflow the stack.
class Parser {
public:
  Parser(std::string_view Text, std::string *Err) : Text(Text), Err(Err) {}

  bool parseDocument(JsonValue &Out) {
    skipSpace();
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr int MaxDepth = 64;

  bool fail(const char *Message) {
    if (Err) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf), "%s (at offset %zu)", Message, Pos);
      *Err = Buf;
    }
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("invalid literal");
    Pos += Len;
    return true;
  }

  bool parseValue(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StringVal);
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.BoolVal = false;
      return literal("false");
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, int Depth) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      // Members and items are parsed in place: no per-element temporary
      // to move into the container and destroy.
      auto &Member = Out.Members.emplace_back();
      if (!parseString(Member.first))
        return false;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return fail("expected ':' after object key");
      ++Pos;
      skipSpace();
      if (!parseValue(Member.second, Depth + 1))
        return false;
      skipSpace();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out, int Depth) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    // Size a flat array up front: its length is one more than the commas
    // before the first ']'. This is only a capacity hint (it over-counts
    // when the array nests others), so take it only when the array
    // starts with a number, the case of the long coefficient arrays.
    if (Pos < Text.size() && (Text[Pos] == '-' || isDigit(Text[Pos]))) {
      size_t Close = Text.find(']', Pos);
      if (Close != std::string_view::npos)
        Out.Items.reserve(
            1 + std::count(Text.begin() + Pos, Text.begin() + Close, ','));
    }
    while (true) {
      skipSpace();
      if (!parseValue(Out.Items.emplace_back(), Depth + 1))
        return false;
      skipSpace();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out.push_back(C);
        ++Pos;
        continue;
      }
      if (++Pos >= Text.size())
        return fail("unterminated escape");
      switch (Text[Pos]) {
      case '"':  Out.push_back('"');  break;
      case '\\': Out.push_back('\\'); break;
      case '/':  Out.push_back('/');  break;
      case 'b':  Out.push_back('\b'); break;
      case 'f':  Out.push_back('\f'); break;
      case 'n':  Out.push_back('\n'); break;
      case 'r':  Out.push_back('\r'); break;
      case 't':  Out.push_back('\t'); break;
      case 'u': {
        if (Pos + 4 >= Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos + 1 + I];
          if (!std::isxdigit(static_cast<unsigned char>(H)))
            return fail("invalid \\u escape");
          Code = Code * 16 +
                 (H <= '9' ? H - '0' : (H | 0x20) - 'a' + 10);
        }
        Pos += 4;
        // UTF-8 encode the BMP code point (surrogate pairs are passed
        // through individually; enough for the ASCII-centric output of
        // the exporters).
        if (Code < 0x80) {
          Out.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        }
        break;
      }
      default:
        return fail("invalid escape character");
      }
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    // Scans with local pointers: the long coefficient arrays make this
    // the parser's hot loop.
    const char *First = Text.data() + Pos, *End = Text.data() + Text.size();
    const char *P = First;
    auto Digits = [&] {
      const char *D = P;
      while (P != End && isDigit(*P))
        ++P;
      return P != D;
    };
    auto Fail = [&](const char *Message) {
      Pos = static_cast<size_t>(P - Text.data());
      return fail(Message);
    };
    if (P != End && *P == '-')
      ++P;
    if (P == End || !isDigit(*P))
      return Fail("invalid number");
    // Leading zero must not be followed by more digits.
    if (*P == '0' && P + 1 != End && isDigit(P[1]))
      return Fail("leading zero in number");
    Digits();
    if (P != End && *P == '.') {
      ++P;
      if (!Digits())
        return Fail("digit expected after decimal point");
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      if (!Digits())
        return Fail("digit expected in exponent");
    }
    Pos = static_cast<size_t>(P - Text.data());
    Out.K = JsonValue::Kind::Number;
    // The grammar is validated above, so from_chars consumes the whole
    // token (correctly rounded, like strtod). On overflow or underflow it
    // leaves the value untouched where strtod gives +-inf or 0, so
    // those rare tokens go through strtod on a NUL-terminated copy.
    if (std::from_chars(First, P, Out.NumberVal).ec != std::errc())
      Out.NumberVal = std::strtod(std::string(First, P).c_str(), nullptr);
    return true;
  }

  std::string_view Text;
  std::string *Err;
  size_t Pos = 0;
};

} // namespace

bool deept::support::parseJson(std::string_view Text, JsonValue &Out,
                               std::string *Err) {
  Out = JsonValue();
  return Parser(Text, Err).parseDocument(Out);
}

std::string deept::support::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\b': Out += "\\b";  break;
    case '\f': Out += "\\f";  break;
    case '\n': Out += "\\n";  break;
    case '\r': Out += "\\r";  break;
    case '\t': Out += "\\t";  break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

void deept::support::appendJsonNumber(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  char Buf[32];
  // 17 significant digits always round-trip a double. to_chars with
  // chars_format::general and a precision is specified to print exactly
  // what printf's "%.17g" prints, without the locale and format-string
  // work. JSON requires a leading digit; %g never emits digit-less forms
  // like ".5", so the token is valid as-is.
  // 32 bytes always fit the longest token, "-2.2250738585072014e-308".
  char *End =
      std::to_chars(Buf, Buf + sizeof(Buf), V, std::chars_format::general, 17)
          .ptr;
  Out.append(Buf, End);
}

std::string deept::support::jsonNumber(double V) {
  std::string Out;
  appendJsonNumber(Out, V);
  return Out;
}
