#include "storage/column.h"

#include <algorithm>
#include <cassert>
#include <cstring>
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
Value Box(std::string_view v) { return Value(v); }

/// Zone map of `rows` typed cells. Mirrors the boxed Value::Compare loop
/// exactly: the first non-null cell seeds min and max, and a later cell
/// replaces them only on a strict < or > — so a NaN seed sticks, a later
/// NaN never enters, and of -0.0 and 0.0 the first seen is kept. Only the
/// final min and max are boxed.
template <typename At, typename IsNull>
ColumnStats TypedStats(size_t rows, At at, IsNull is_null) {
  ColumnStats stats;
  stats.has_stats = true;
  stats.row_count = static_cast<int64_t>(rows);
  using T = decltype(at(size_t{0}));
  T min{}, max{};
  bool seen = false;
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
  assert(!sealed_);
  if (null_bits_.empty()) {
    // The first NULL materializes the bitmap: all-valid for the rows before
    // it, and reserved like the typed buffer so it is allocated once.
    const size_t row_capacity =
        type_ == DataType::kBool      ? bools_.capacity()
        : type_ == DataType::kInt64   ? ints_.capacity()
        : type_ == DataType::kFloat64 ? doubles_.capacity()
        : string_offsets_.capacity() - 1;
    null_bits_.reserve((std::max(size_ + 1, row_capacity) + 63) / 64);
    null_bits_.resize((size_ + 63) / 64, 0);
  }
  if ((size_ & 63) == 0) null_bits_.push_back(0);
  null_bits_[size_ >> 6] |= uint64_t{1} << (size_ & 63);
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
  assert(type_ == DataType::kBool && !sealed_);
  AppendValid();
  bools_.push_back(v ? 1 : 0);
}

void ColumnVector::AppendInt64(int64_t v) {
  assert(type_ == DataType::kInt64 && !sealed_);
  AppendValid();
  ints_.push_back(v);
}

void ColumnVector::AppendFloat64(double v) {
  assert(type_ == DataType::kFloat64 && !sealed_);
  AppendValid();
  doubles_.push_back(v);
}

void ColumnVector::AppendString(std::string_view v) {
  assert(type_ == DataType::kString && !sealed_);
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
    case DataType::kString: AppendString(v.str()); break;
  }
}

Value ColumnVector::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kBool: return Value(BoolAt(i));
    case DataType::kInt64: return Value(Int64At(i));
    case DataType::kFloat64: return Value(Float64At(i));
    case DataType::kString: return Value(StringAt(i));
  }
  return Value::Null();
}

ColumnStats ColumnVector::ComputeStats() const {
  ColumnStats stats;
  // Over the rows; a column without a bitmap takes the no-NULL loop.
  auto over_rows = [&](auto at) {
    WithNullTest(*this,
                 [&](auto is_null) { stats = TypedStats(size_, at, is_null); });
  };
  switch (type_) {
    case DataType::kBool: over_rows([&](size_t i) { return BoolAt(i); }); break;
    case DataType::kInt64: WithInt64s(*this, over_rows); break;
    case DataType::kFloat64:
      over_rows([&](size_t i) { return doubles_[i]; });
      break;
    case DataType::kString:
      if (layout_ == ColumnLayout::kPlain) {
        over_rows([&](size_t i) { return Entry(i); });
        break;
      }
      // Every entry is some non-NULL row's value and every such value an
      // entry, so min and max over the entries are those over the rows.
      stats = TypedStats(
          string_offsets_.size() - 1, [&](size_t e) { return Entry(e); },
          [](size_t) { return false; });
      stats.row_count = static_cast<int64_t>(size_);
      for (uint64_t word : null_bits_) {
        stats.null_count += __builtin_popcountll(word);
      }
      break;
  }
  // A column keeps a null bitmap exactly when it holds a NULL.
  SNOW_DCHECK_EQ(null_bits_.empty(), stats.null_count == 0);
  return stats;
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

ColumnStats ColumnVector::Seal(Replaced* replaced) {
  if (sealed_) return ComputeStats();
  sealed_ = true;
  null_bits_.shrink_to_fit();
  bools_.shrink_to_fit();
  doubles_.shrink_to_fit();
  switch (type_) {
    case DataType::kInt64: {
      const ColumnStats stats = ComputeStats();
      NarrowInt64s(stats, replaced);
      return stats;
    }
    case DataType::kString:
      EncodeDictionary(replaced);
      break;
    default: break;
  }
  return ComputeStats();
}

namespace {

/// Hash of a string for the dictionary's probe table. HashStringValue's
/// byte-at-a-time FNV-1a is one serial multiply per byte; this takes the
/// string a word at a time (two overlapping 4-byte loads below 8 bytes, as
/// wyhash does), one multiply per 8 bytes.
uint64_t ProbeHash(std::string_view s) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  const char* p = s.data();
  const size_t n = s.size();
  auto load64 = [p](size_t at) {
    uint64_t w;
    std::memcpy(&w, p + at, sizeof(w));
    return w;
  };
  auto load32 = [p](size_t at) {
    uint32_t w;
    std::memcpy(&w, p + at, sizeof(w));
    return uint64_t{w};
  };
  uint64_t h = n * kMul;
  if (n >= 8) {
    for (size_t i = 0; i + 8 < n; i += 8) h = (h ^ load64(i)) * kMul;
    h ^= load64(n - 8);
  } else if (n >= 4) {
    h ^= load32(0) << 32 | load32(n - 4);
  } else if (n > 0) {
    h ^= uint64_t{static_cast<uint8_t>(p[0])} << 16 |
         uint64_t{static_cast<uint8_t>(p[n / 2])} << 8 |
         static_cast<uint8_t>(p[n - 1]);
  }
  h *= kMul;
  return h ^ (h >> 32);
}

/// `size` values `value_of(i)`, narrowed to U.
template <typename U, typename ValueOf>
std::vector<U> Pack(size_t size, ValueOf value_of) {
  std::vector<U> packed(size);
  for (size_t i = 0; i < size; ++i) packed[i] = static_cast<U>(value_of(i));
  return packed;
}

}  // namespace

void ColumnVector::NarrowInt64s(const ColumnStats& stats, Replaced* replaced) {
  SNOW_DCHECK_EQ(stats.row_count, static_cast<int64_t>(size_));
  // The range is taken in uint64_t, where max - min cannot overflow. No
  // valid row (a NULL zone map): the base is 0. NULL slots get offset 0,
  // so they decode to the base.
  const int64_t min = stats.min.is_null() ? 0 : stats.min.int64_value();
  const int64_t max = stats.max.is_null() ? 0 : stats.max.int64_value();
  const uint64_t range =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  if (range > std::numeric_limits<uint32_t>::max()) {
    ints_.shrink_to_fit();
    return;
  }
  const int64_t* xs = ints_.data();
  WithNullTest(*this, [&](auto is_null) {
    auto offset = [&](size_t i) {
      return is_null(i) ? 0
                        : static_cast<uint64_t>(xs[i]) -
                              static_cast<uint64_t>(min);
    };
    if (range <= std::numeric_limits<uint16_t>::max()) {
      packed_ = Pack<uint16_t>(size_, offset);
      layout_ = ColumnLayout::kOffsets16;
    } else {
      packed_ = Pack<uint32_t>(size_, offset);
      layout_ = ColumnLayout::kOffsets32;
    }
  });
  int_base_ = min;
  replaced->ints = std::exchange(ints_, {});
}

void ColumnVector::EncodeDictionary(Replaced* replaced) {
  constexpr size_t kMaxEntries = size_t{1} << 16;
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  const size_t plain_bytes =
      string_offsets_.size() * sizeof(uint32_t) + string_bytes_.size();
  // Open addressing over entry numbers, at most half full. Entries are
  // numbered in order of first appearance; NULL rows take code 0.
  size_t slots = 16;
  while (slots < 2 * std::min(size_, kMaxEntries)) slots *= 2;
  std::vector<uint32_t> table(slots, kEmpty);
  std::vector<uint32_t> entry_offsets = {0};
  std::vector<char> entry_bytes;
  std::vector<uint16_t> codes(size_, 0);
  bool smaller = true;
  WithNullTest(*this, [&](auto is_null) {
    for (size_t i = 0; i < size_; ++i) {
      if (is_null(i)) continue;
      const std::string_view s = Entry(i);
      size_t slot = ProbeHash(s) & (slots - 1);
      while (table[slot] != kEmpty) {
        const uint32_t e = table[slot];
        if (std::string_view(entry_bytes.data() + entry_offsets[e],
                             entry_offsets[e + 1] - entry_offsets[e]) == s) {
          break;
        }
        slot = (slot + 1) & (slots - 1);
      }
      if (table[slot] == kEmpty) {
        const size_t entries = entry_offsets.size() - 1;
        // Give up once the entries alone, with one code byte per row,
        // are no smaller than the plain layout.
        if (entries == kMaxEntries ||
            (entries + 2) * sizeof(uint32_t) + entry_bytes.size() +
                    s.size() + size_ >=
                plain_bytes) {
          smaller = false;
          break;
        }
        table[slot] = static_cast<uint32_t>(entries);
        entry_bytes.insert(entry_bytes.end(), s.begin(), s.end());
        entry_offsets.push_back(static_cast<uint32_t>(entry_bytes.size()));
      }
      codes[i] = static_cast<uint16_t>(table[slot]);
    }
  });
  const size_t entries = entry_offsets.size() - 1;
  const size_t code_bytes = entries <= 256 ? 1 : 2;
  // An all-NULL column has no entry for its NULL slots to hold: it stays
  // plain.
  if (!smaller || entries == 0 ||
      entry_offsets.size() * sizeof(uint32_t) + entry_bytes.size() +
              size_ * code_bytes >=
          plain_bytes) {
    string_offsets_.shrink_to_fit();
    string_bytes_.shrink_to_fit();
    return;
  }
  if (code_bytes == 1) {
    packed_ = Pack<uint8_t>(size_, [&codes](size_t i) { return codes[i]; });
    layout_ = ColumnLayout::kCodes8;
  } else {
    packed_ = std::move(codes);
    layout_ = ColumnLayout::kCodes16;
  }
  entry_offsets.shrink_to_fit();
  entry_bytes.shrink_to_fit();
  replaced->string_offsets =
      std::exchange(string_offsets_, std::move(entry_offsets));
  replaced->string_bytes =
      std::exchange(string_bytes_, std::move(entry_bytes));
}

size_t ColumnVector::MemoryBytes() const {
  return CapacityBytes(null_bits_) + CapacityBytes(bools_) +
         CapacityBytes(ints_) +
         std::visit([](const auto& v) { return CapacityBytes(v); }, packed_) +
         CapacityBytes(doubles_) + CapacityBytes(string_offsets_) +
         CapacityBytes(string_bytes_);
}

}  // namespace snowprune
