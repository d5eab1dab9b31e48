#include "storage/column.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"

namespace snowprune {

namespace {

template <typename V>
size_t CapacityBytes(const std::vector<V>& v) {
  return v.capacity() * sizeof(V);
}

Value Box(bool v) { return Value(v); }
Value Box(int64_t v) { return Value(v); }
Value Box(double v) { return Value(v); }
Value Box(std::string_view v) { return Value(std::string(v)); }

/// Zone map of one typed column. Mirrors the boxed Value::Compare loop
/// exactly: the first non-null row seeds min and max, and a later row
/// replaces them only on a strict < or > — so a NaN seed sticks, a later
/// NaN never enters, and of -0.0 and 0.0 the first seen is kept. Only the
/// final min and max are boxed. A column without a mask takes the no-NULL
/// loop.
template <typename At>
ColumnStats TypedStats(const uint8_t* nulls, size_t rows, At at) {
  ColumnStats stats;
  stats.has_stats = true;
  stats.row_count = static_cast<int64_t>(rows);
  using T = decltype(at(size_t{0}));
  T min{}, max{};
  bool seen = false;
  WithNullTest(nulls, [&](auto is_null) {
    for (size_t i = 0; i < rows; ++i) {
      if (is_null(i)) {
        ++stats.null_count;
        continue;
      }
      const T v = at(i);
      if (!seen) {
        min = v;
        max = v;
        seen = true;
      } else {
        if (v < min) min = v;
        if (v > max) max = v;
      }
    }
  });
  if (seen) {
    stats.min = Box(min);
    stats.max = Box(max);
  }
  return stats;
}

}  // namespace

ColumnVector::ColumnVector(DataType type) : type_(type) {
  if (type_ == DataType::kString) string_offsets_.push_back(0);
}

void ColumnVector::AppendNull() {
  assert(!narrow_);
  if (null_mask_.empty()) {
    // The first NULL materializes the mask: all-valid for the rows before
    // it, and reserved like the typed buffer so it is allocated once.
    const size_t row_capacity =
        type_ == DataType::kBool      ? bools_.capacity()
        : type_ == DataType::kInt64   ? ints_.capacity()
        : type_ == DataType::kFloat64 ? doubles_.capacity()
        : string_offsets_.capacity() - 1;
    null_mask_.reserve(std::max(size_ + 1, row_capacity));
    null_mask_.resize(size_, 0);
  }
  null_mask_.push_back(1);
  ++size_;
  switch (type_) {
    case DataType::kBool: bools_.push_back(0); break;
    case DataType::kInt64: ints_.push_back(0); break;
    case DataType::kFloat64: doubles_.push_back(0.0); break;
    case DataType::kString:
      string_offsets_.push_back(string_offsets_.back());
      break;
  }
}

void ColumnVector::AppendBool(bool v) {
  assert(type_ == DataType::kBool);
  AppendValid();
  bools_.push_back(v ? 1 : 0);
}

void ColumnVector::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64 && !narrow_);
  AppendValid();
  ints_.push_back(v);
}

void ColumnVector::AppendFloat64(double v) {
  assert(type_ == DataType::kFloat64);
  AppendValid();
  doubles_.push_back(v);
}

void ColumnVector::AppendString(std::string_view v) {
  assert(type_ == DataType::kString);
  SNOW_CHECK_LE(v.size(), std::numeric_limits<uint32_t>::max() -
                              string_bytes_.size());
  AppendValid();
  string_bytes_.insert(string_bytes_.end(), v.begin(), v.end());
  string_offsets_.push_back(static_cast<uint32_t>(string_bytes_.size()));
}

void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool: AppendBool(v.bool_value()); break;
    case DataType::kInt64: AppendInt64(v.int64_value()); break;
    case DataType::kFloat64:
      // Allow int-typed literals to land in float columns.
      AppendFloat64(v.is_int64() ? static_cast<double>(v.int64_value())
                                 : v.float64_value());
      break;
    case DataType::kString: AppendString(v.string_value()); break;
  }
}

Value ColumnVector::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kBool: return Value(BoolAt(i));
    case DataType::kInt64: return Value(Int64At(i));
    case DataType::kFloat64: return Value(Float64At(i));
    case DataType::kString: return Value(std::string(StringAt(i)));
  }
  return Value::Null();
}

ColumnStats ColumnVector::ComputeStats() const {
  switch (type_) {
    case DataType::kBool:
      return TypedStats(nulls(), size_, [&](size_t i) { return BoolAt(i); });
    case DataType::kInt64: {
      ColumnStats stats;
      WithInt64s(*this,
                 [&](auto at) { stats = TypedStats(nulls(), size_, at); });
      return stats;
    }
    case DataType::kFloat64:
      return TypedStats(nulls(), size_, [&](size_t i) { return doubles_[i]; });
    case DataType::kString:
      return TypedStats(nulls(), size_, [&](size_t i) { return StringAt(i); });
  }
  return ColumnStats{};
}

void ColumnVector::Reserve(size_t rows, size_t string_bytes) {
  switch (type_) {
    case DataType::kBool: bools_.reserve(bools_.size() + rows); break;
    case DataType::kInt64: ints_.reserve(ints_.size() + rows); break;
    case DataType::kFloat64: doubles_.reserve(doubles_.size() + rows); break;
    case DataType::kString:
      string_offsets_.reserve(string_offsets_.size() + rows);
      string_bytes_.reserve(string_bytes_.size() + string_bytes);
      break;
  }
}

std::vector<int64_t> ColumnVector::Seal(const ColumnStats& stats) {
  null_mask_.shrink_to_fit();
  bools_.shrink_to_fit();
  doubles_.shrink_to_fit();
  string_offsets_.shrink_to_fit();
  string_bytes_.shrink_to_fit();
  if (type_ != DataType::kInt64 || narrow_) return {};
  SNOW_DCHECK_EQ(stats.row_count, static_cast<int64_t>(size_));
  // Narrowing frees the int64 buffer, so it is shrunk only if it stays.
  // The range is taken in uint64_t, where max - min cannot overflow.
  // No valid row (a NULL zone map): the base is 0.
  const int64_t min = stats.min.is_null() ? 0 : stats.min.int64_value();
  const int64_t max = stats.max.is_null() ? 0 : stats.max.int64_value();
  if (static_cast<uint64_t>(max) - static_cast<uint64_t>(min) >
      std::numeric_limits<uint32_t>::max()) {
    ints_.shrink_to_fit();
    return {};
  }
  // NULL slots get offset 0, so they decode to the base.
  std::vector<uint32_t> offsets(size_);
  WithNullTest(nulls(), [&](auto is_null) {
    for (size_t i = 0; i < size_; ++i) {
      offsets[i] = is_null(i) ? 0
                              : static_cast<uint32_t>(
                                    static_cast<uint64_t>(ints_[i]) -
                                    static_cast<uint64_t>(min));
    }
  });
  int_offsets_ = std::move(offsets);
  int_base_ = min;
  narrow_ = true;
  return std::exchange(ints_, {});
}

size_t ColumnVector::MemoryBytes() const {
  return CapacityBytes(null_mask_) + CapacityBytes(bools_) +
         CapacityBytes(ints_) + CapacityBytes(int_offsets_) +
         CapacityBytes(doubles_) +
         CapacityBytes(string_offsets_) + CapacityBytes(string_bytes_);
}

}  // namespace snowprune
