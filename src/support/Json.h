//===- support/Json.h - Minimal JSON parsing and emission ------*- C++ -*-===//
//
// Part of deept-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON toolkit for the observability layer: the
/// trace / metrics exporters emit JSON with the escape helpers below, and
/// the tests plus the `deept_json_validate` smoke tool parse it back with
/// the recursive-descent parser. Standard JSON (RFC 8259) only -- no
/// comments, no trailing commas.
///
//===----------------------------------------------------------------------===//

#ifndef DEEPT_SUPPORT_JSON_H
#define DEEPT_SUPPORT_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace deept {
namespace support {

/// A parsed JSON document node.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool BoolVal = false;
  double NumberVal = 0.0;
  std::string StringVal;
  std::vector<JsonValue> Items; // Kind::Array
  std::vector<std::pair<std::string, JsonValue>> Members; // Kind::Object

  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue *find(std::string_view Key) const;
};

/// Parses \p Text into \p Out. Returns false (and fills \p Err with a
/// position-annotated message) on malformed input or trailing garbage.
bool parseJson(std::string_view Text, JsonValue &Out,
               std::string *Err = nullptr);

/// Escapes a string for embedding between double quotes in JSON output.
std::string jsonEscape(std::string_view S);

/// Formats a double as a JSON number token, byte-identical to printf's
/// "%.17g" (so it reads back exactly); non-finite values (which JSON
/// cannot represent) become "null".
std::string jsonNumber(double V);

/// Appends jsonNumber(V) to \p Out without a temporary string.
void appendJsonNumber(std::string &Out, double V);

} // namespace support
} // namespace deept

#endif // DEEPT_SUPPORT_JSON_H
