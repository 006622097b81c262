#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace zv {

const char* DataTypeToString(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "null";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_numeric()) return 1;
  return 2;
}

}  // namespace

int Value::Compare(const Value& other) const {
  const int lr = TypeRank(*this), rr = TypeRank(other);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (lr) {
    case 0:
      return 0;  // null == null
    case 1: {
      // Compare exactly when both are ints, numerically otherwise.
      if (is_int() && other.is_int()) {
        const int64_t a = AsInt(), b = other.AsInt();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      const double a = AsDouble(), b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    char buf[64];
    const double d = AsDouble();
    if (std::fabs(d) < 1e15 && d == static_cast<int64_t>(d)) {
      snprintf(buf, sizeof(buf), "%.1f", d);
    } else {
      snprintf(buf, sizeof(buf), "%.6g", d);
    }
    return buf;
  }
  return AsString();
}

namespace {

/// 2^53: every int64 of smaller magnitude converts to double exactly.
constexpr int64_t kTwo53 = int64_t{1} << 53;

}  // namespace

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_numeric()) {
    // Hash int-valued doubles identically to the corresponding int64 so the
    // hash is compatible with numeric equality. The range check comes
    // first: converting NaN, an infinity or a magnitude >= 2^63 is UB.
    const double d = AsDouble();
    if (FitsInt64(d) && d == static_cast<int64_t>(d)) {
      return std::hash<int64_t>()(static_cast<int64_t>(d));
    }
    return std::hash<double>()(d);
  }
  return std::hash<std::string>()(AsString());
}

bool ValueSet::Hashable(const Value& v) {
  if (v.is_double()) return !std::isnan(v.AsDouble());
  if (v.is_int()) return v.AsInt() > -kTwo53 && v.AsInt() < kTwo53;
  return true;
}

void ValueSet::Add(const Value& v) {
  if (v.is_numeric()) has_numeric_ = true;
  if (Hashable(v)) {
    hashed_.insert(v);
  } else {
    unhashed_.push_back(v);
  }
}

bool ValueSet::Insert(const Value& v) {
  if (Contains(v)) return false;
  Add(v);
  return true;
}

bool ValueSet::Contains(const Value& v) const {
  // NaN compares equal to every number, and its hash matches none.
  if (v.is_double() && std::isnan(v.AsDouble())) return has_numeric_;
  if (hashed_.count(v) != 0) return true;
  for (const Value& member : unhashed_) {
    if (member == v) return true;
  }
  return false;
}

}  // namespace zv
