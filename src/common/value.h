/// \file value.h
/// \brief Runtime value type flowing through the SQL engine and ZQL layers.

#ifndef ZV_COMMON_VALUE_H_
#define ZV_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

namespace zv {

/// \brief Column / value type tags.
///
/// Categorical columns are dictionary-encoded: the storage layer keeps
/// int32 codes plus a per-column dictionary; the Value type surfaces them
/// as strings at API boundaries.
enum class DataType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType t);

/// \brief A small tagged union value (null / int64 / double / string).
///
/// Ordering and equality are defined across numeric types (int64 and double
/// compare numerically); strings compare lexicographically; null compares
/// less than everything else. This matches the semantics the ZQL executor
/// needs for ORDER BY and set membership.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  DataType type() const {
    if (is_null()) return DataType::kNull;
    if (is_int()) return DataType::kInt64;
    if (is_double()) return DataType::kDouble;
    return DataType::kString;
  }

  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
    return std::get<double>(data_);
  }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric-aware three-way comparison; null < numeric < string.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Unambiguous rendering used in test expectations and CSV output.
  std::string ToString() const;

  /// Hash compatible with operator== (int64 and equal-valued double hash
  /// alike).
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// True if `d` converts to int64 without overflow: finite and in
/// [-2^63, 2^63). Converting any other double to an integer type is
/// undefined behaviour.
inline bool FitsInt64(double d) {
  return d >= -9223372036854775808.0 && d < 9223372036854775808.0;
}

/// `d` truncated toward zero as an int64, or INT64_MIN when !FitsInt64(d)
/// — the value x86's conversion instruction yields there, so bin keys keep
/// the bytes an unchecked cast produced on that hardware.
inline int64_t TruncateToInt64(double d) {
  return FitsInt64(d) ? static_cast<int64_t>(d) : INT64_MIN;
}

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// \brief A set of Values whose membership test answers exactly what a
/// linear scan with operator== over the added values would, in expected
/// O(1) per probe.
///
/// operator== is not an equivalence on every Value: NaN compares equal to
/// every number, and an int64 beyond 2^53 equals the double it rounds to
/// but not that double's exact int64. Such members stay in a small list
/// probed linearly, and a NaN probe is answered as "any numeric member";
/// every other member lives in a hash set, where equal members relate
/// alike to every probe.
class ValueSet {
 public:
  /// Adds `v` as a member (duplicates are harmless).
  void Add(const Value& v);

  /// Adds `v` unless a member equals it; returns whether it was added.
  /// Inserting a sequence keeps exactly the values a std::find-based
  /// first-occurrence dedupe would keep.
  bool Insert(const Value& v);

  /// True if some member == `v`.
  bool Contains(const Value& v) const;

 private:
  static bool Hashable(const Value& v);

  std::unordered_set<Value, ValueHash> hashed_;
  std::vector<Value> unhashed_;
  bool has_numeric_ = false;
};

}  // namespace zv

#endif  // ZV_COMMON_VALUE_H_
