#ifndef SNOWPRUNE_STORAGE_COLUMN_H_
#define SNOWPRUNE_STORAGE_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
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

/// A typed, nullable column of values inside one micro-partition. Storage is
/// unboxed (PAX-style). Fixed-width types keep one contiguous vector of
/// values; strings use the variable-size binary layout of Apache Arrow: one
/// byte arena holding every cell back to back, and size()+1 uint32 offsets
/// starting at 0, so cell i is the bytes [offsets[i], offsets[i+1]). NULL
/// rows occupy a default-valued slot (a zero-length one for strings) so
/// indexes stay aligned across buffers.
///
/// The null mask (one byte per row, 1 = NULL) is optional, as Arrow's
/// validity buffer is: it is allocated by the first AppendNull, with zeros
/// for the rows before it, so a column that never holds a NULL keeps no mask
/// and nulls() returns nullptr. Whether a mask exists is the column's own
/// fact; zone maps are never consulted for it.
///
/// Int64 columns are frame-of-reference encoded when sealed (Zukowski et
/// al., ICDE 2006): if the non-NULL values span at most UINT32_MAX, Seal()
/// stores each row as a uint32 offset from the smallest value, the column's
/// own base (the minimum of the zone map computed as the partition seals;
/// dropping or backfilling that zone map later never moves it), and frees
/// the int64 buffer. A
/// wider column stays int64. Int64At, ValueAt and WithInt64s decode, so no
/// reader sees the layout. A NULL slot reads back as 0 from a wide column
/// and as the base from a narrowed one (0 for an all-NULL column); readers
/// must test the mask before trusting a slot.
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

  bool IsNull(size_t i) const { return !null_mask_.empty() && null_mask_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  int64_t Int64At(size_t i) const {
    return narrow_ ? int_base_ + static_cast<int64_t>(int_offsets_[i])
                   : ints_[i];
  }
  double Float64At(size_t i) const { return doubles_[i]; }
  /// A view into the column's arena; valid while the column is alive and
  /// not appended to.
  std::string_view StringAt(size_t i) const {
    const uint32_t begin = string_offsets_[i];
    return std::string_view(string_bytes_.data() + begin,
                            string_offsets_[i + 1] - begin);
  }

  /// Raw typed storage for vectorized consumers (the ColumnBatch hot path).
  /// nulls() is the null mask, or nullptr when the column holds no NULL.
  /// Only the vector matching type() is populated; NULL rows hold a
  /// default-valued slot, so indexes align with the null mask. String
  /// cells are read through StringAt, int64 cells through WithInt64s.
  const uint8_t* nulls() const {
    return null_mask_.empty() ? nullptr : null_mask_.data();
  }
  const std::vector<uint8_t>& bool_data() const { return bools_; }
  const std::vector<double>& float64_data() const { return doubles_; }

  /// Boxed accessor (returns Value::Null() for null rows).
  Value ValueAt(size_t i) const;

  /// Scans the column to produce its zone map.
  ColumnStats ComputeStats() const;

  /// Pre-sizes the value buffers for `rows` more rows carrying
  /// `string_bytes` more string bytes. The null mask is sized by the first
  /// AppendNull, to the value buffer's capacity.
  void Reserve(size_t rows, size_t string_bytes);
  /// Seals the column for a partition that never grows: releases spare
  /// buffer capacity and narrows an int64 column to 32-bit offsets from its
  /// base when its range allows. `stats` is this column's ComputeStats(),
  /// whose min and max give the range, so sealing reads no cell. Sealing a
  /// sealed column does nothing.
  /// Returns the int64 buffer a narrowing replaced (empty otherwise) for
  /// the caller to free: MicroPartition frees them after its last column
  /// is sealed, so the allocator can hand them out whole to the next
  /// partition instead of splitting them for the next column's offsets.
  std::vector<int64_t> Seal(const ColumnStats& stats);
  /// True when the int64 cells are held as 32-bit offsets from a base.
  bool int64_narrowed() const { return narrow_; }
  /// Bytes of string payload held in the arena.
  size_t string_bytes() const { return string_bytes_.size(); }
  /// Heap bytes the column's buffers hold (their capacities, not sizes).
  size_t MemoryBytes() const;

 private:
  /// Appends a valid row's mask byte, if the column has a mask.
  void AppendValid() {
    if (!null_mask_.empty()) null_mask_.push_back(0);
    ++size_;
  }

  template <typename Body>
  friend void WithInt64s(const ColumnVector& col, Body&& body);

  DataType type_;
  size_t size_ = 0;
  bool narrow_ = false;    ///< Int64 cells are int_base_ + int_offsets_[i].
  int64_t int_base_ = 0;
  std::vector<uint32_t> int_offsets_;
  std::vector<uint8_t> null_mask_;  ///< Empty until the first NULL.
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
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
  std::string_view string_value() const { return col->StringAt(row); }
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

/// Runs `body(is_null)` once, where `is_null(r)` tests row r against
/// `nulls` (a ColumnVector::nulls()). For an all-valid column the test is
/// the constant false, so a kernel written once compiles to a second loop
/// that loads no mask byte; the choice is made once per call, not per row.
template <typename Body>
inline void WithNullTest(const uint8_t* nulls, Body&& body) {
  if (nulls == nullptr) {
    body([](size_t) { return false; });
  } else {
    body([nulls](size_t r) { return nulls[r] != 0; });
  }
}

/// Runs `body(at)` once, where `at(r)` returns row r of the int64 column
/// `col`. The column's layout (offsets from a base, or plain int64) is
/// picked here, once per call, so a kernel written once compiles to one
/// loop per layout with no per-row branch. A NULL row's slot is not 0 (see
/// ColumnVector); test the mask first.
template <typename Body>
void WithInt64s(const ColumnVector& col, Body&& body) {
  if (col.narrow_) {
    const int64_t base = col.int_base_;
    const uint32_t* offsets = col.int_offsets_.data();
    body([base, offsets](size_t r) {
      return base + static_cast<int64_t>(offsets[r]);
    });
  } else {
    const int64_t* xs = col.ints_.data();
    body([xs](size_t r) { return xs[r]; });
  }
}

}  // namespace snowprune

#endif  // SNOWPRUNE_STORAGE_COLUMN_H_
