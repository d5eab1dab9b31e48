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
/// unboxed (PAX-style) plus a null mask. Fixed-width types keep one
/// contiguous vector of values; strings use the variable-size binary layout
/// of Apache Arrow: one byte arena holding every cell back to back, and
/// size()+1 uint32 offsets starting at 0, so cell i is the bytes
/// [offsets[i], offsets[i+1]). NULL rows occupy a default-valued slot (a
/// zero-length one for strings) so indexes stay aligned with the null mask.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type);

  DataType type() const { return type_; }
  size_t size() const { return null_mask_.size(); }

  void AppendNull();
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string_view v);
  /// Boxed append; the value's type must match (or be NULL).
  void AppendValue(const Value& v);

  bool IsNull(size_t i) const { return null_mask_[i] != 0; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double Float64At(size_t i) const { return doubles_[i]; }
  /// A view into the column's arena; valid while the column is alive and
  /// not appended to.
  std::string_view StringAt(size_t i) const {
    const uint32_t begin = string_offsets_[i];
    return std::string_view(string_bytes_.data() + begin,
                            string_offsets_[i + 1] - begin);
  }

  /// Raw typed storage for vectorized consumers (the ColumnBatch hot path).
  /// Only the vector matching type() is populated; NULL rows hold a
  /// default-valued slot, so indexes align with the null mask. String
  /// cells are read through StringAt.
  const std::vector<uint8_t>& null_mask() const { return null_mask_; }
  const std::vector<uint8_t>& bool_data() const { return bools_; }
  const std::vector<int64_t>& int64_data() const { return ints_; }
  const std::vector<double>& float64_data() const { return doubles_; }

  /// Boxed accessor (returns Value::Null() for null rows).
  Value ValueAt(size_t i) const;

  /// Scans the column to produce its zone map.
  ColumnStats ComputeStats() const;

  /// Pre-sizes the buffers for `rows` more rows carrying `string_bytes`
  /// more string bytes.
  void Reserve(size_t rows, size_t string_bytes);
  /// Releases spare buffer capacity (a sealed partition never grows).
  void ShrinkToFit();
  /// Bytes of string payload held in the arena.
  size_t string_bytes() const { return string_bytes_.size(); }
  /// Heap bytes the column's buffers hold (their capacities, not sizes).
  size_t MemoryBytes() const;

 private:
  DataType type_;
  std::vector<uint8_t> null_mask_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> string_offsets_;
  std::vector<char> string_bytes_;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_STORAGE_COLUMN_H_
