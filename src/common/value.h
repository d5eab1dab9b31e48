#ifndef SNOWPRUNE_COMMON_VALUE_H_
#define SNOWPRUNE_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace snowprune {

/// Physical data types supported by the engine. Dates are stored as kInt64
/// (days since epoch); the engine's pruning math only needs a total order
/// plus numeric arithmetic, so a dedicated date type would add no behaviour.
enum class DataType { kBool, kInt64, kFloat64, kString };

const char* ToString(DataType t);

/// A dynamically-typed SQL value (possibly NULL). Used at API boundaries,
/// in zone-map metadata, and by the scalar evaluator; columnar storage keeps
/// values unboxed.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : data_(std::monostate{}) {}
  explicit Value(bool b) : data_(b) {}
  explicit Value(int64_t i) : data_(i) {}
  explicit Value(int i) : data_(static_cast<int64_t>(i)) {}
  explicit Value(double d) : data_(d) {}
  explicit Value(std::string s) : data_(std::move(s)) {}
  explicit Value(const char* s) : data_(std::string(s)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(data_); }
  bool is_float64() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int64() || is_float64(); }

  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double float64_value() const { return std::get<double>(data_); }
  const std::string& string_value() const { return std::get<std::string>(data_); }

  /// Numeric content as double; requires is_numeric().
  double AsDouble() const {
    return is_int64() ? static_cast<double>(int64_value()) : float64_value();
  }

  /// The value's data type; requires !is_null().
  DataType type() const;

  /// Three-way comparison. NULL values and cross-kind comparisons (string vs
  /// numeric) are the caller's responsibility; int64 and float64 compare
  /// numerically. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  /// True when both are non-null and Compare(a,b)==0, or both NULL.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// Stable 64-bit hash used by hash joins and Bloom summaries. Numeric values
/// hash by canonical double bits when fractional, by integer value otherwise,
/// so Value(2) and Value(2.0) collide as equality demands.
uint64_t HashValue(const Value& v);

/// Component hashes of HashValue, one per physical type. HashValue
/// dispatches to these, and the columnar (unboxed) join path calls them
/// directly on raw column cells — the two can therefore never disagree.
uint64_t HashBoolValue(bool b);
uint64_t HashInt64Value(int64_t v);
uint64_t HashFloat64Value(double d);
uint64_t HashStringValue(std::string_view s);

}  // namespace snowprune

#endif  // SNOWPRUNE_COMMON_VALUE_H_
