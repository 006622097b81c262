/// \file json.h
/// \brief Dependency-free JSON: value model, parser, and emitter — the wire
/// substrate of the typed query API (src/api/).
///
/// Design points that matter to the protocol layer:
///  - Numbers keep their int64/double distinction. A JSON literal with no
///    fraction or exponent that fits int64 parses as an integer and emits
///    without a decimal point, so uint-ish counters (ZqlStats) round-trip
///    exactly; doubles emit with the shortest digit string that strtod maps
///    back to the identical bit pattern (see CanonicalDouble).
///  - Objects preserve insertion order (vector of members, linear lookup —
///    protocol objects are small). Emission order == construction order ==
///    parse order, so encode(decode(text)) is byte-identical.
///  - Parse errors carry 1-based line/column in the message — they feed the
///    protocol's structured error payload.

#ifndef ZV_COMMON_JSON_H_
#define ZV_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace zv {

/// Shortest decimal rendering of `d` that strtod parses back to the same
/// bits (tries %.15g, %.16g, %.17g). Always contains '.', 'e', or a
/// non-finite token, so a re-parse stays a double. Non-finite values render
/// as "NaN"/"Infinity"/"-Infinity" (accepted nowhere in strict JSON — the
/// JSON emitter maps them to null).
std::string CanonicalDouble(double d);

/// \brief One JSON value. Cheap to move; copy duplicates the whole tree.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : data_(std::monostate{}) {}

  static Json Null() { return Json(); }
  static Json Bool(bool v) { return Json(Payload(v)); }
  static Json Int(int64_t v) { return Json(Payload(v)); }
  static Json Double(double v) { return Json(Payload(v)); }
  static Json Str(std::string v) { return Json(Payload(std::move(v))); }
  static Json Str(const char* v) { return Str(std::string(v)); }
  static Json MakeArray() { return Json(Payload(Array{})); }
  static Json MakeObject() { return Json(Payload(Object{})); }

  Type type() const {
    switch (data_.index()) {
      case 0: return Type::kNull;
      case 1: return Type::kBool;
      case 2: return Type::kInt;
      case 3: return Type::kDouble;
      case 4: return Type::kString;
      case 5: return Type::kArray;
      default: return Type::kObject;
    }
  }

  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const {
    if (is_double()) return TruncateToInt64(std::get<double>(data_));
    return std::get<int64_t>(data_);
  }
  double as_double() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
    return std::get<double>(data_);
  }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  const Array& array() const { return std::get<Array>(data_); }
  Array& array() { return std::get<Array>(data_); }
  const Object& object() const { return std::get<Object>(data_); }
  Object& object() { return std::get<Object>(data_); }

  size_t size() const {
    if (is_array()) return array().size();
    if (is_object()) return object().size();
    return 0;
  }

  /// Appends to an array value.
  void Append(Json v) { array().push_back(std::move(v)); }

  /// Sets `key` on an object value (replaces an existing member in place,
  /// otherwise appends — insertion order is the wire order).
  Json& Set(const std::string& key, Json v);

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  /// Structural equality. Int and double compare as distinct types (Int(1)
  /// != Double(1.0)) — the codec round-trip preserves the distinction, and
  /// blurring it would hide fidelity bugs. Objects compare member-by-member
  /// in order.
  bool operator==(const Json& other) const { return data_ == other.data_; }

  /// Serializes. indent == 0: compact one-line form (the wire format);
  /// indent > 0: pretty-printed with that many spaces per level.
  std::string Dump(int indent = 0) const;

  /// Parses one JSON document (trailing non-whitespace is an error). Error
  /// statuses are kParseError with "line L, column C" in the message.
  static Result<Json> Parse(const std::string& text);

 private:
  using Payload = std::variant<std::monostate, bool, int64_t, double,
                               std::string, Array, Object>;
  explicit Json(Payload data) : data_(std::move(data)) {}

  void DumpTo(std::string* out, int indent, int depth) const;

  Payload data_;
};

/// Escapes `s` into a quoted JSON string token (quotes included).
std::string JsonQuote(const std::string& s);

}  // namespace zv

#endif  // ZV_COMMON_JSON_H_
