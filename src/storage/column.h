#ifndef SNOWPRUNE_STORAGE_COLUMN_H_
#define SNOWPRUNE_STORAGE_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "common/interval.h"
#include "common/value.h"

namespace snowprune {

/// Zone-map metadata (min/max "small materialized aggregates", §2.1) kept
/// per column per micro-partition in the metadata store. This is the only
/// information compile-time pruning may look at.
struct ColumnStats {
  bool has_stats = false;   ///< False for external files lacking metadata (§8.1).
  Value min;                ///< Smallest non-null value; NULL iff all-null column.
  Value max;                ///< Largest non-null value; NULL iff all-null column.
  int64_t null_count = 0;
  int64_t row_count = 0;

  /// The value range this zone map admits, as a pruning interval.
  Interval ToInterval() const {
    if (!has_stats) return Interval::Unknown();
    if (row_count == 0 || min.is_null()) return Interval::AllNull();
    return Interval::Range(min, max, null_count > 0);
  }
};

/// How a sealed column holds its cells. Seal() picks the layout from the
/// data; readers never branch on it (see ColumnVector). Reported for tests
/// and measurements.
enum class ColumnLayout : uint8_t {
  kPlain,      ///< One slot per row (int64, double, bool or Arrow string).
  kOffsets16,  ///< int64: uint16 offsets from the column's base.
  kOffsets32,  ///< int64: uint32 offsets from the column's base.
  kCodes8,     ///< string: uint8 codes into the partition's dictionary.
  kCodes16,    ///< string: uint16 codes into the partition's dictionary.
};

/// A typed, nullable column of values inside one micro-partition. Storage is
/// unboxed (PAX-style). Fixed-width types keep one contiguous vector of
/// values; strings use the variable-size binary layout of Apache Arrow: one
/// byte arena holding every cell back to back, and size()+1 uint32 offsets
/// starting at 0, so cell i is the bytes [offsets[i], offsets[i+1]). NULL
/// rows occupy a default-valued slot (a zero-length one for strings) so
/// indexes stay aligned across buffers.
///
/// The null bitmap (one bit per row, 1 = NULL) is optional, as Arrow's
/// validity buffer is: it is allocated by the first AppendNull, with zeros
/// for the rows before it, so a column that never holds a NULL keeps none
/// and has_nulls() is false. Whether a bitmap exists is the column's own
/// fact; zone maps are never consulted for it.
///
/// Seal() compresses the column for a partition that never grows (Abadi et
/// al., SIGMOD 2006), choosing the layout from the data:
/// - int64, frame of reference (Zukowski et al., ICDE 2006): if the
///   non-NULL values span at most UINT16_MAX (UINT32_MAX), each row becomes
///   a uint16 (uint32) offset from the smallest value, the column's own base
///   (the minimum of the zone map computed as the partition seals; dropping
///   or backfilling that zone map later never moves it), and the int64
///   buffer is freed. A wider column stays int64.
/// - string, per-partition dictionary: the distinct non-NULL values become
///   the entries, held in the Arrow offsets + bytes pair, and each row a
///   uint8 code (at most 256 entries) or a uint16 code (at most 65,536).
///   The plain layout stays whenever the dictionary would not be smaller,
///   so sealing never grows a column. The zone map is taken over the
///   entries.
/// The offsets and the codes share one member, a buffer of unsigned
/// integers of the width the layout gives. Int64At, StringAt, ValueAt and the
/// With* helpers below decode, so no reader sees the layout. A NULL row's
/// slot reads back as 0 from a wide int64 column, as the base from a
/// narrowed one (0 for an all-NULL column), and as the first entry from a
/// dictionary; readers must test IsNull before trusting a slot.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return size_; }

  void AppendNull();
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);
  /// Boxed append; the value's type must match (or be NULL).
  void AppendValue(const Value& v);

  bool IsNull(size_t i) const {
    return !null_bits_.empty() && ((null_bits_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  /// True when the column holds a NULL (and so keeps a null bitmap).
  bool has_nulls() const { return !null_bits_.empty(); }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  int64_t Int64At(size_t i) const {
    switch (layout_) {
      case ColumnLayout::kOffsets16:
        return int_base_ + static_cast<int64_t>(packed<uint16_t>()[i]);
      case ColumnLayout::kOffsets32:
        return int_base_ + static_cast<int64_t>(packed<uint32_t>()[i]);
      default: return ints_[i];
    }
  }
  double Float64At(size_t i) const { return doubles_[i]; }
  /// A view into the column's arena or dictionary; valid while the column
  /// is alive and not appended to.
  std::string_view StringAt(size_t i) const {
    switch (layout_) {
      case ColumnLayout::kCodes8: return Entry(packed<uint8_t>()[i]);
      case ColumnLayout::kCodes16: return Entry(packed<uint16_t>()[i]);
      default: return Entry(i);
    }
  }

  /// Raw typed storage for vectorized consumers (the ColumnBatch hot path).
  /// Only the vector matching type() is populated; NULL rows hold a
  /// default-valued slot. Int64, string and null cells are read through
  /// WithInt64s, WithStrings and WithNullTest.
  const std::vector<uint8_t>& bool_data() const { return bools_; }
  const std::vector<double>& float64_data() const { return doubles_; }

  /// Boxed accessor (returns Value::Null() for null rows).
  Value ValueAt(size_t i) const;

  /// Scans the column to produce its zone map (a dictionary's entries
  /// rather than its rows).
  ColumnStats ComputeStats() const;

  /// Pre-sizes the value buffers for `rows` more rows carrying
  /// `string_bytes` more string bytes. The null bitmap is sized by the
  /// first AppendNull, to the value buffer's capacity.
  void Reserve(size_t rows, size_t string_bytes);

  /// Buffers a Seal replaced, for the caller to free (see Seal).
  struct Replaced {
    std::vector<int64_t> ints;
    std::vector<uint32_t> string_offsets;
    std::vector<char> string_bytes;
  };
  /// Seals the column for a partition that never grows: releases spare
  /// buffer capacity, picks its layout (see the class comment) and returns
  /// its zone map, ComputeStats() of the sealed column. The int64 range is
  /// read off that zone map, so narrowing reads no cell twice. Sealing a
  /// sealed column changes nothing.
  /// The buffers a new layout replaced are moved into `*replaced` for the
  /// caller to free: MicroPartition frees them after its last column is
  /// sealed, so the allocator can hand them out whole to the next partition
  /// instead of splitting them for the next column's new buffers.
  ColumnStats Seal(Replaced* replaced);
  ColumnLayout layout() const { return layout_; }
  /// Bytes of string payload held in the arena (the dictionary's entries
  /// once dictionary-coded).
  size_t string_bytes() const { return string_bytes_.size(); }
  /// Heap bytes the column's buffers hold (their capacities, not sizes).
  size_t MemoryBytes() const;

 private:
  /// Appends a valid row, extending the null bitmap if the column has one.
  void AppendValid() {
    if (!null_bits_.empty() && (size_ & 63) == 0) null_bits_.push_back(0);
    ++size_;
  }
  /// The packed buffer at width U; the layout must be one of that width.
  template <typename U>
  const U* packed() const {
    return std::get_if<std::vector<U>>(&packed_)->data();
  }
  /// Cell i of the plain string layout, or entry i of a dictionary.
  std::string_view Entry(size_t i) const {
    const uint32_t begin = string_offsets_[i];
    return std::string_view(string_bytes_.data() + begin,
                            string_offsets_[i + 1] - begin);
  }
  void NarrowInt64s(const ColumnStats& stats, Replaced* replaced);
  void EncodeDictionary(Replaced* replaced);

  template <typename Body>
  friend void WithNullTest(const ColumnVector& col, Body&& body);
  template <typename Body>
  friend void WithInt64s(const ColumnVector& col, Body&& body);
  template <typename Body>
  friend void WithStrings(const ColumnVector& col, Body&& body);
  template <typename Match, typename Body>
  friend void WithStringMatches(const ColumnVector& col, size_t rows,
                                Match&& match, Body&& body);

  DataType type_;
  ColumnLayout layout_ = ColumnLayout::kPlain;
  bool sealed_ = false;
  size_t size_ = 0;
  int64_t int_base_ = 0;  ///< Frame-of-reference base of an int64 column.
  /// Frame-of-reference offsets or dictionary codes, one alternative per
  /// width; an empty uint8_t vector in the plain layout.
  std::variant<std::vector<uint8_t>, std::vector<uint16_t>,
               std::vector<uint32_t>>
      packed_;
  std::vector<uint64_t> null_bits_;  ///< Empty until the first NULL.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  /// Per row in the plain layout, per dictionary entry once coded.
  std::vector<uint32_t> string_offsets_;
  std::vector<char> string_bytes_;
};

/// The cell source (see CompareScalars in common/value.h) over row `row` of
/// `col`: scalar rules read a column cell through it in place, as they read
/// a boxed Value.
struct ColumnCell {
  const ColumnVector* col;
  size_t row;

  bool is_null() const { return col->IsNull(row); }
  DataType type() const { return col->type(); }
  bool bool_value() const { return col->BoolAt(row); }
  int64_t int64_value() const { return col->Int64At(row); }
  double float64_value() const { return col->Float64At(row); }
  std::string_view str() const { return col->StringAt(row); }
  /// As Value::AsDouble: a non-numeric cell throws through the boxed read.
  double AsDouble() const {
    switch (col->type()) {
      case DataType::kInt64: return static_cast<double>(int64_value());
      case DataType::kFloat64: return float64_value();
      default: return col->ValueAt(row).AsDouble();
    }
  }
};

/// The boxed Value of a cell source.
inline const Value& BoxCell(const Value& v) { return v; }
inline Value BoxCell(const ColumnCell& c) { return c.col->ValueAt(c.row); }

/// Runs `body(is_null)` once, where `is_null(r)` tests row r of `col`. For
/// an all-valid column the test is the constant false, so a kernel written
/// once compiles to a second loop that reads no bitmap; the choice is made
/// once per call, not per row.
template <typename Body>
inline void WithNullTest(const ColumnVector& col, Body&& body) {
  if (col.null_bits_.empty()) {
    body([](size_t) { return false; });
  } else {
    const uint64_t* bits = col.null_bits_.data();
    body([bits](size_t r) { return ((bits[r >> 6] >> (r & 63)) & 1) != 0; });
  }
}

/// Runs `body(at)` once, where `at(r)` returns row r of the int64 column
/// `col`. The column's layout (16- or 32-bit offsets from a base, or plain
/// int64) is picked here, once per call, so a kernel written once compiles
/// to one loop per layout with no per-row branch. A NULL row's slot is not
/// 0 (see ColumnVector); test IsNull first.
template <typename Body>
void WithInt64s(const ColumnVector& col, Body&& body) {
  const int64_t base = col.int_base_;
  switch (col.layout_) {
    case ColumnLayout::kOffsets16: {
      const uint16_t* offsets = col.packed<uint16_t>();
      body([base, offsets](size_t r) {
        return base + static_cast<int64_t>(offsets[r]);
      });
      return;
    }
    case ColumnLayout::kOffsets32: {
      const uint32_t* offsets = col.packed<uint32_t>();
      body([base, offsets](size_t r) {
        return base + static_cast<int64_t>(offsets[r]);
      });
      return;
    }
    default: {
      const int64_t* xs = col.ints_.data();
      body([xs](size_t r) { return xs[r]; });
      return;
    }
  }
}

/// Runs `body(at)` once, where `at(r)` returns row r of the string column
/// `col` as a std::string_view into the column. The layout (plain, or 8- or
/// 16-bit dictionary codes) is picked once per call, as in WithInt64s.
template <typename Body>
void WithStrings(const ColumnVector& col, Body&& body) {
  const uint32_t* offsets = col.string_offsets_.data();
  const char* bytes = col.string_bytes_.data();
  auto entry = [offsets, bytes](size_t e) {
    return std::string_view(bytes + offsets[e], offsets[e + 1] - offsets[e]);
  };
  switch (col.layout_) {
    case ColumnLayout::kCodes8: {
      const uint8_t* codes = col.packed<uint8_t>();
      body([entry, codes](size_t r) { return entry(codes[r]); });
      return;
    }
    case ColumnLayout::kCodes16: {
      const uint16_t* codes = col.packed<uint16_t>();
      body([entry, codes](size_t r) { return entry(codes[r]); });
      return;
    }
    default:
      body(entry);
      return;
  }
}

/// Runs `body(match_at)` once, where `match_at(r)` is `match(s)` (a bool)
/// for row r's string s of the string column `col`, and `rows` is how many
/// rows the caller will ask about. A dictionary column with no more entries
/// than that calls `match` once per entry and maps each row's code through
/// the results; otherwise `match` runs per row. NULL rows answer for the
/// entry their slot holds; test IsNull first.
template <typename Match, typename Body>
void WithStringMatches(const ColumnVector& col, size_t rows, Match&& match,
                       Body&& body) {
  const size_t entries = col.string_offsets_.size() - 1;
  auto mapped = [&](const auto* codes) {
    uint8_t small[256];
    std::vector<uint8_t> large;
    uint8_t* results = small;
    if (entries > 256) {
      large.resize(entries);
      results = large.data();
    }
    for (size_t e = 0; e < entries; ++e) results[e] = match(col.Entry(e));
    body([results, codes](size_t r) { return results[codes[r]] != 0; });
  };
  if (col.layout_ == ColumnLayout::kCodes8 && entries <= rows) {
    mapped(col.packed<uint8_t>());
  } else if (col.layout_ == ColumnLayout::kCodes16 && entries <= rows) {
    mapped(col.packed<uint16_t>());
  } else {
    WithStrings(col, [&](auto at) {
      body([&match, at](size_t r) -> bool { return match(at(r)); });
    });
  }
}

}  // namespace snowprune

#endif  // SNOWPRUNE_STORAGE_COLUMN_H_
