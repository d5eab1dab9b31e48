#ifndef SNOWPRUNE_COMMON_VALUE_H_
#define SNOWPRUNE_COMMON_VALUE_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace snowprune {

/// Physical data types supported by the engine. Dates are stored as kInt64
/// (days since epoch); the engine's pruning math only needs a total order
/// plus numeric arithmetic, so a dedicated date type would add no behaviour.
enum class DataType { kBool, kInt64, kFloat64, kString };

const char* ToString(DataType t);

/// A dynamically-typed SQL value (possibly NULL). Used at API boundaries,
/// in zone-map metadata, and by the scalar evaluator; columnar storage keeps
/// values unboxed. A Value is also a cell source (see CompareScalars).
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

  /// The value's data type; requires !is_null(). The variant's
  /// alternatives after monostate follow DataType's order.
  DataType type() const {
    assert(!is_null());
    return static_cast<DataType>(data_.index() - 1);
  }

  /// CompareScalars over two Values. NULL values and cross-kind comparisons
  /// (string vs numeric) are the caller's responsibility.
  static int Compare(const Value& a, const Value& b);

  /// True when both are NULL, or both are non-null and ScalarsEqual.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// A materialized row exchanged between operators (boxed; the engine trades
/// raw scan speed for uniformity — pruning, not per-row throughput, is what
/// this library studies).
using Row = std::vector<Value>;

/// Scalar rules are written once, as templates over *cell sources*: types
/// that read one cell through is_null(), type(), bool_value(),
/// int64_value(), float64_value(), string_value() and AsDouble(). A boxed
/// Value is one; ColumnCell (storage/column.h) reads a column row in place.
/// Each source is bound at compile time, so a loop over column cells pays
/// one type switch per cell, no virtual call and no boxing.

/// The three-way order of two non-null scalars of comparable kinds (see
/// ScalarsComparable): strings bytewise, false < true, two int64s exactly,
/// any other numeric pair through double. A NaN is neither less nor greater
/// than anything, so it ties every number. Returns <0, 0, >0.
template <typename A, typename B>
inline int CompareScalars(const A& a, const B& b) {
  auto three_way = [](auto x, auto y) { return x < y ? -1 : (x > y ? 1 : 0); };
  switch (a.type()) {
    case DataType::kString:
      return std::string_view(a.string_value()).compare(b.string_value());
    case DataType::kBool:
      return static_cast<int>(a.bool_value()) -
             static_cast<int>(b.bool_value());
    case DataType::kInt64:
      if (b.type() == DataType::kInt64) {
        return three_way(a.int64_value(), b.int64_value());
      }
      break;
    case DataType::kFloat64:
      if (b.type() == DataType::kFloat64) {
        return three_way(a.float64_value(), b.float64_value());
      }
      break;
  }
  // A mixed int64/double pair: both through double.
  auto as_double = [](const auto& c) {
    return c.type() == DataType::kInt64 ? static_cast<double>(c.int64_value())
                                        : c.float64_value();
  };
  return three_way(as_double(a), as_double(b));
}

/// True when two non-null scalars have kinds CompareScalars orders: both
/// strings, both bools, or both numeric. Comparisons, IN lists and join
/// keys treat any other pair as not comparable.
template <typename A, typename B>
inline bool ScalarsComparable(const A& a, const B& b) {
  const DataType x = a.type(), y = b.type();
  return (x == DataType::kString) == (y == DataType::kString) &&
         (x == DataType::kBool) == (y == DataType::kBool);
}

/// Equality of two non-null scalars, as comparisons, IN lists, equi-join
/// keys and operator== decide it: comparable kinds that CompareScalars
/// ties. A NaN therefore equals every number.
template <typename A, typename B>
inline bool ScalarsEqual(const A& a, const B& b) {
  return ScalarsComparable(a, b) && CompareScalars(a, b) == 0;
}

/// Stable 64-bit hash used by hash joins and Bloom summaries. Numeric values
/// hash by canonical double bits when fractional, by integer value otherwise,
/// so Value(2) and Value(2.0) collide as equality demands.
uint64_t HashValue(const Value& v);

/// Component hashes of HashValue, one per physical type.
uint64_t HashBoolValue(bool b);
uint64_t HashInt64Value(int64_t v);
uint64_t HashFloat64Value(double d);
uint64_t HashStringValue(std::string_view s);

/// HashValue of a non-null cell source, so a column cell and its boxed
/// Value hash alike.
template <typename Cell>
inline uint64_t HashScalar(const Cell& c) {
  switch (c.type()) {
    case DataType::kBool: return HashBoolValue(c.bool_value());
    case DataType::kInt64: return HashInt64Value(c.int64_value());
    case DataType::kFloat64: return HashFloat64Value(c.float64_value());
    case DataType::kString: return HashStringValue(c.string_value());
  }
  return 0;
}

}  // namespace snowprune

#endif  // SNOWPRUNE_COMMON_VALUE_H_
