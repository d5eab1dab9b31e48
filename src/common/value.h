#ifndef SNOWPRUNE_COMMON_VALUE_H_
#define SNOWPRUNE_COMMON_VALUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
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
///
/// Layout: 16 bytes, 15 of payload and a tag byte (the last) that holds
/// the kind and, for an inline string, its length. A bool, int64 or double
/// sits at byte 0. A string of at most kInlineCapacity (15) bytes is stored
/// inline; a longer one lives in an exact-size heap buffer whose pointer
/// fills bytes 0-7 and whose length fills bytes 8-14 (56 bits, so no string
/// a process can hold is truncated). Copying deep-copies a heap string, as
/// std::string does; moving copies the 16 bytes and leaves the source NULL.
/// Strings are read through str(), a view valid while the Value is alive
/// and unmodified, or string_value(), an owning copy for API-edge callers.
/// Reading the wrong kind (int64_value() of a string, say) throws
/// std::bad_variant_access, as std::get does.
class Value {
 public:
  static constexpr size_t kInlineCapacity = 15;

  /// Constructs a NULL value.
  Value() = default;
  explicit Value(bool b) { Init(kBoolTag, static_cast<unsigned char>(b)); }
  explicit Value(int64_t i) { Init(kInt64Tag, i); }
  explicit Value(int i) : Value(static_cast<int64_t>(i)) {}
  explicit Value(double d) { Init(kFloat64Tag, d); }
  explicit Value(std::string_view s) { InitString(s); }
  explicit Value(const char* s) : Value(std::string_view(s)) {}

  Value(const Value& other) {
    if (other.tag() == kHeapStringTag) {
      InitString(other.str());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.set_tag(kNullTag);
  }
  Value& operator=(const Value& other) {
    if (this != &other) *this = Value(other);
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      other.set_tag(kNullTag);
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }

  bool is_null() const { return tag() == kNullTag; }
  bool is_bool() const { return tag() == kBoolTag; }
  bool is_int64() const { return tag() == kInt64Tag; }
  bool is_float64() const { return tag() == kFloat64Tag; }
  bool is_string() const { return tag() >= kHeapStringTag; }
  bool is_numeric() const { return is_int64() || is_float64(); }

  bool bool_value() const {
    Expect(kBoolTag);
    return bytes_[0] != 0;
  }
  int64_t int64_value() const { return Load<int64_t>(kInt64Tag); }
  double float64_value() const { return Load<double>(kFloat64Tag); }
  /// A view of the string's bytes, valid while this Value is alive and
  /// unmodified.
  std::string_view str() const {
    if (tag() >= kInlineStringTag) {
      return std::string_view(reinterpret_cast<const char*>(bytes_),
                              tag() - kInlineStringTag);
    }
    Expect(kHeapStringTag);
    return std::string_view(heap_data(), heap_size());
  }
  /// An owning copy of the string, for callers at the API edge.
  std::string string_value() const { return std::string(str()); }

  /// Numeric content as double; requires is_numeric().
  double AsDouble() const {
    return is_int64() ? static_cast<double>(int64_value()) : float64_value();
  }

  /// The value's data type; requires !is_null(). The tags after NULL
  /// follow DataType's order, and every string tag maps to kString.
  DataType type() const {
    assert(!is_null());
    return static_cast<DataType>(std::min<uint8_t>(tag(), kHeapStringTag) - 1);
  }

  /// CompareScalars over two Values. NULL values and cross-kind comparisons
  /// (string vs numeric) are the caller's responsibility.
  static int Compare(const Value& a, const Value& b);

  /// True when both are NULL, or both are non-null and ScalarsEqual.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  /// The tag byte: NULL, a bool, an int64, a double, a heap string, or an
  /// inline string of length tag - kInlineStringTag.
  enum : uint8_t {
    kNullTag = 0,
    kBoolTag,
    kInt64Tag,
    kFloat64Tag,
    kHeapStringTag,
    kInlineStringTag,
  };
  static constexpr size_t kTagByte = 15;
  static constexpr uint64_t kHeapSizeMask = (uint64_t{1} << 56) - 1;
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "a heap string's length shares a word with the tag byte");

  uint8_t tag() const { return bytes_[kTagByte]; }
  void set_tag(uint8_t t) { bytes_[kTagByte] = t; }

  template <typename T>
  void Init(uint8_t t, T payload) {
    std::memcpy(bytes_, &payload, sizeof(payload));
    set_tag(t);
  }
  void InitString(std::string_view s);

  template <typename T>
  T Load(uint8_t t) const {
    Expect(t);
    T out;
    std::memcpy(&out, bytes_, sizeof(out));
    return out;
  }
  void Expect(uint8_t t) const {
    if (tag() != t) ThrowWrongKind();
  }
  [[noreturn]] static void ThrowWrongKind();

  char* heap_data() const {
    char* p;
    std::memcpy(&p, bytes_, sizeof(p));
    return p;
  }
  size_t heap_size() const {
    uint64_t word;
    std::memcpy(&word, bytes_ + 8, sizeof(word));
    return static_cast<size_t>(word & kHeapSizeMask);
  }
  void Release() {
    if (tag() == kHeapStringTag) FreeHeap();
  }
  void FreeHeap();

  alignas(8) unsigned char bytes_[16] = {};
};

static_assert(sizeof(Value) == 16, "a boxed cell is 16 bytes");

/// A materialized row: one boxed Value per column, 16 bytes a cell. Rows
/// are what a query returns (QueryResult::rows) and what the row-at-a-time
/// operators (Project, Limit, Sort) pass in a Batch; the aggregate, join
/// and top-k operators read their scan's ColumnBatches unboxed.
using Row = std::vector<Value>;

/// Scalar rules are written once, as templates over *cell sources*: types
/// that read one cell through is_null(), type(), bool_value(),
/// int64_value(), float64_value(), str() (a std::string_view) and
/// AsDouble(). A boxed
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
      return a.str().compare(b.str());
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
    case DataType::kString: return HashStringValue(c.str());
  }
  return 0;
}

}  // namespace snowprune

#endif  // SNOWPRUNE_COMMON_VALUE_H_
