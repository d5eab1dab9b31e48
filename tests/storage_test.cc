#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/scan_set.h"
#include "storage/table.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

Schema TwoColSchema() {
  return Schema({Field{"a", DataType::kInt64, true},
                 Field{"b", DataType::kString, true}});
}

TEST(ColumnVectorTest, AppendAndRead) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(3);
  col.AppendNull();
  col.AppendInt64(-1);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Int64At(2), -1);
  EXPECT_TRUE(col.ValueAt(1).is_null());
  EXPECT_EQ(col.ValueAt(0).int64_value(), 3);
}

TEST(ColumnVectorTest, StatsIncludeNullsAndBounds) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(10);
  col.AppendNull();
  col.AppendInt64(-5);
  ColumnStats stats = col.ComputeStats();
  EXPECT_TRUE(stats.has_stats);
  EXPECT_EQ(stats.row_count, 3);
  EXPECT_EQ(stats.null_count, 1);
  EXPECT_EQ(stats.min.int64_value(), -5);
  EXPECT_EQ(stats.max.int64_value(), 10);
  Interval iv = stats.ToInterval();
  EXPECT_TRUE(iv.maybe_null);
  EXPECT_EQ(iv.lo->int64_value(), -5);
}

TEST(ColumnVectorTest, AllNullStats) {
  ColumnVector col(DataType::kString);
  col.AppendNull();
  col.AppendNull();
  ColumnStats stats = col.ComputeStats();
  EXPECT_TRUE(stats.min.is_null());
  EXPECT_TRUE(stats.ToInterval().all_null);
}

TEST(ColumnVectorTest, StringCellsReadBackThroughTheArena) {
  const std::string long_value = "a-value-longer-than-fifteen-bytes";
  ColumnVector col(DataType::kString);
  col.AppendString("");
  col.AppendNull();
  col.AppendString("abc");
  col.AppendString(long_value);
  ASSERT_EQ(col.size(), 4u);
  EXPECT_EQ(col.StringAt(0), "");
  EXPECT_EQ(col.StringAt(1), "");  // NULL keeps a zero-length slot
  EXPECT_TRUE(col.ValueAt(1).is_null());
  EXPECT_EQ(col.StringAt(2), "abc");
  EXPECT_EQ(col.StringAt(3), long_value);
  EXPECT_EQ(col.ValueAt(3).string_value(), long_value);
}

/// The join hash and join summaries hash string cells straight from the
/// arena (HashStringValue on StringAt) and boxed keys through HashValue;
/// the two must agree or join pruning drops matches.
TEST(ColumnVectorTest, StringCellHashMatchesBoxedValueHash) {
  const std::string cells[] = {"", "short", "a-value-longer-than-fifteen"};
  ColumnVector col(DataType::kString);
  for (const std::string& c : cells) col.AppendString(c);
  for (size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(HashStringValue(col.StringAt(i)), HashValue(col.ValueAt(i)))
        << "cell " << i;
    EXPECT_EQ(HashStringValue(col.StringAt(i)), HashValue(Value(cells[i])))
        << "cell " << i;
  }
}

/// Appends `n` rows of `type`, NULL exactly at the rows in `null_rows`;
/// row i otherwise holds a value derived from i.
ColumnVector ColumnWithNullsAt(DataType type, size_t n,
                               const std::vector<size_t>& null_rows) {
  ColumnVector col(type);
  for (size_t i = 0; i < n; ++i) {
    if (std::find(null_rows.begin(), null_rows.end(), i) != null_rows.end()) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case DataType::kBool: col.AppendBool(i % 2 == 1); break;
      case DataType::kInt64:
        col.AppendInt64(static_cast<int64_t>(i) - 3);
        break;
      case DataType::kFloat64: col.AppendFloat64(0.5 * i); break;
      case DataType::kString: col.AppendString("s" + std::to_string(i)); break;
    }
  }
  return col;
}

Value ExpectedCell(DataType type, size_t i) {
  switch (type) {
    case DataType::kBool: return Value(i % 2 == 1);
    case DataType::kInt64: return Value(static_cast<int64_t>(i) - 3);
    case DataType::kFloat64: return Value(0.5 * i);
    case DataType::kString: return Value("s" + std::to_string(i));
  }
  return Value::Null();
}

constexpr DataType kAllTypes[] = {DataType::kBool, DataType::kInt64,
                                  DataType::kFloat64, DataType::kString};

/// A column that never sees a NULL keeps no mask, whether its field is
/// nullable or not; the first NULL materializes one byte per row.
TEST(ColumnVectorTest, NoNullMeansNoMask) {
  Schema schema({Field{"id", DataType::kInt64, false},
                 Field{"v", DataType::kInt64, true},
                 Field{"w", DataType::kInt64, true}});
  TableBuilder builder("t", schema, /*target_partition_rows=*/100);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(builder
                    .AppendRow({Value(i), Value(i * 2),
                                i == 40 ? Value::Null() : Value(i)})
                    .ok());
  }
  auto table = builder.Finish();
  ASSERT_EQ(table->num_partitions(), 1u);
  const MicroPartition& part = table->partition_metadata(0);
  EXPECT_FALSE(part.column(0).has_nulls());  // non-nullable field
  EXPECT_FALSE(part.column(1).has_nulls());  // nullable, but no NULL
  ASSERT_TRUE(part.column(2).has_nulls());
  // Sealed buffers hold exactly their rows: 2 bytes per cell (each range
  // fits 16 bits, so the column narrowed), plus a bitmap of one bit per row
  // (two 64-bit words) only where a NULL occurred.
  EXPECT_EQ(part.column(0).MemoryBytes(), 100 * sizeof(uint16_t));
  EXPECT_EQ(part.column(1).MemoryBytes(), 100 * sizeof(uint16_t));
  EXPECT_EQ(part.column(2).MemoryBytes(),
            100 * sizeof(uint16_t) + 2 * sizeof(uint64_t));
  EXPECT_EQ(table->MemoryBytes(),
            3 * 100 * sizeof(uint16_t) + 2 * sizeof(uint64_t));
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(table->stats(0, c).null_count, c == 2 ? 1 : 0);
  }
}

/// A first NULL at row 0, mid-column and at the last row back-fills the
/// mask exactly: every other row reads back valid, with its value.
TEST(ColumnVectorTest, FirstNullAnywhereReadsBackExactly) {
  constexpr size_t kRows = 9;
  for (DataType type : kAllTypes) {
    for (size_t first : {size_t{0}, kRows / 2, kRows - 1}) {
      const std::string ctx = std::string(ToString(type)) + " first NULL at " +
                              std::to_string(first);
      ColumnVector col = ColumnWithNullsAt(type, kRows, {first});
      ASSERT_EQ(col.size(), kRows) << ctx;
      ASSERT_TRUE(col.has_nulls()) << ctx;
      for (size_t i = 0; i < kRows; ++i) {
        EXPECT_EQ(col.IsNull(i), i == first) << ctx << " row " << i;
        const Value v = col.ValueAt(i);
        if (i == first) {
          EXPECT_TRUE(v.is_null()) << ctx << " row " << i;
        } else {
          EXPECT_EQ(Value::Compare(v, ExpectedCell(type, i)), 0)
              << ctx << " row " << i;
        }
      }
      EXPECT_EQ(col.ComputeStats().null_count, 1) << ctx;
    }
  }
}

/// The mask allocated by a first NULL in a reserved column (every partition
/// after the first) is sized like the typed buffer and sealed to the rows.
TEST(ColumnVectorTest, FirstNullInReservedColumnSealsExactly) {
  Schema schema({Field{"v", DataType::kFloat64, true}});
  TableBuilder builder("t", schema, /*target_partition_rows=*/50);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        builder.AppendRow({i == 77 ? Value::Null() : Value(1.0 * i)}).ok());
  }
  auto table = builder.Finish();
  ASSERT_EQ(table->num_partitions(), 2u);
  EXPECT_FALSE(table->partition_metadata(0).column(0).has_nulls());
  const ColumnVector& col = table->partition_metadata(1).column(0);
  ASSERT_TRUE(col.has_nulls());
  EXPECT_EQ(col.MemoryBytes(), 50 * sizeof(double) + sizeof(uint64_t));
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(col.IsNull(i), i == 27) << "row " << i;
    if (i != 27) EXPECT_EQ(col.Float64At(i), 50.0 + i);
  }
}

TEST(ColumnVectorTest, AllNullColumnOfEveryType) {
  for (DataType type : kAllTypes) {
    ColumnVector col = ColumnWithNullsAt(type, 4, {0, 1, 2, 3});
    ASSERT_TRUE(col.has_nulls()) << ToString(type);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(col.IsNull(i)) << ToString(type) << " row " << i;
      EXPECT_TRUE(col.ValueAt(i).is_null()) << ToString(type) << " row " << i;
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(col));
    MicroPartition part(0, std::move(cols));
    EXPECT_EQ(part.stats(0).null_count, 4) << ToString(type);
    EXPECT_TRUE(part.stats(0).ToInterval().all_null) << ToString(type);
    EXPECT_TRUE(part.column(0).IsNull(3)) << ToString(type);
  }
}

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kTwoTo32 = int64_t{1} << 32;

/// Seals `cells` (std::nullopt = NULL) as a one-column int64 partition.
MicroPartition SealedInts(const std::vector<std::optional<int64_t>>& cells) {
  ColumnVector col(DataType::kInt64);
  for (const auto& c : cells) {
    if (c.has_value()) {
      col.AppendInt64(*c);
    } else {
      col.AppendNull();
    }
  }
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(col));
  return MicroPartition(0, std::move(cols));
}

/// Every cell of `col` reads back as `cells` through Int64At, ValueAt and
/// WithInt64s, and the zone map agrees.
void ExpectIntsReadBack(const ColumnVector& col,
                        const std::vector<std::optional<int64_t>>& cells,
                        const std::string& ctx) {
  ASSERT_EQ(col.size(), cells.size()) << ctx;
  std::vector<int64_t> decoded;
  WithInt64s(col, [&](auto at) {
    for (size_t r = 0; r < col.size(); ++r) decoded.push_back(at(r));
  });
  for (size_t r = 0; r < cells.size(); ++r) {
    EXPECT_EQ(col.IsNull(r), !cells[r].has_value()) << ctx << " row " << r;
    if (!cells[r].has_value()) {
      EXPECT_TRUE(col.ValueAt(r).is_null()) << ctx << " row " << r;
      continue;
    }
    EXPECT_EQ(col.Int64At(r), *cells[r]) << ctx << " row " << r;
    EXPECT_EQ(decoded[r], *cells[r]) << ctx << " row " << r;
    EXPECT_EQ(col.ValueAt(r).int64_value(), *cells[r]) << ctx << " row " << r;
  }
}

/// A column narrows exactly when max - min fits 32 bits: a range of
/// 2^32 - 1 narrows to 4 bytes per row, a range of 2^32 stays 8.
TEST(FrameOfReferenceTest, NarrowsUpToARangeOf2To32Minus1) {
  for (int64_t base : {int64_t{0}, int64_t{-7}, -kTwoTo32 * 3, kInt64Min,
                       kInt64Max - kTwoTo32}) {
    const std::string ctx = "base " + std::to_string(base);
    const std::vector<std::optional<int64_t>> fits = {
        base + 5, base, base + (kTwoTo32 - 1), base + 1};
    MicroPartition narrow = SealedInts(fits);
    EXPECT_EQ(narrow.column(0).layout(), ColumnLayout::kOffsets32) << ctx;
    EXPECT_EQ(narrow.column(0).MemoryBytes(), 4 * sizeof(uint32_t)) << ctx;
    ExpectIntsReadBack(narrow.column(0), fits, ctx);
    EXPECT_EQ(narrow.stats(0).min.int64_value(), base) << ctx;
    EXPECT_EQ(narrow.stats(0).max.int64_value(), base + (kTwoTo32 - 1))
        << ctx;
    if (base > kInt64Max - kTwoTo32) continue;
    const std::vector<std::optional<int64_t>> wider = {base + 5, base,
                                                       base + kTwoTo32};
    MicroPartition wide = SealedInts(wider);
    EXPECT_EQ(wide.column(0).layout(), ColumnLayout::kPlain) << ctx;
    EXPECT_EQ(wide.column(0).MemoryBytes(), 3 * sizeof(int64_t)) << ctx;
    ExpectIntsReadBack(wide.column(0), wider, ctx);
  }
}

TEST(FrameOfReferenceTest, Int64ExtremesInOnePartitionReadBackExactly) {
  const std::vector<std::optional<int64_t>> cells = {
      kInt64Max, kInt64Min, 0, std::nullopt, -1, kInt64Min + 1, kInt64Max - 1};
  MicroPartition part = SealedInts(cells);
  EXPECT_EQ(part.column(0).layout(), ColumnLayout::kPlain);
  ExpectIntsReadBack(part.column(0), cells, "extremes");
  EXPECT_EQ(part.stats(0).min.int64_value(), kInt64Min);
  EXPECT_EQ(part.stats(0).max.int64_value(), kInt64Max);
}

/// Negative bases, NULL slots and an all-NULL column read back exactly. A
/// narrowed column's NULL slot holds the base (0 when every row is NULL),
/// and the sealed buffers are exactly 4 bytes per row plus the mask.
TEST(FrameOfReferenceTest, NegativeBaseAndNullsReadBackExactly) {
  const int64_t base = -5'000'000'000'000;
  const std::vector<std::optional<int64_t>> cells = {
      std::nullopt, base + 7, base, std::nullopt, base + 3'000'000'000};
  MicroPartition part = SealedInts(cells);
  const ColumnVector& col = part.column(0);
  ASSERT_EQ(col.layout(), ColumnLayout::kOffsets32);
  ExpectIntsReadBack(col, cells, "negative base");
  EXPECT_EQ(col.Int64At(0), base);
  EXPECT_EQ(col.Int64At(3), base);
  EXPECT_EQ(col.MemoryBytes(), 5 * sizeof(uint32_t) + sizeof(uint64_t));
  EXPECT_EQ(part.stats(0).min.int64_value(), base);
  EXPECT_EQ(part.stats(0).null_count, 2);

  const std::vector<std::optional<int64_t>> all_null(3, std::nullopt);
  MicroPartition nulls = SealedInts(all_null);
  ASSERT_EQ(nulls.column(0).layout(), ColumnLayout::kOffsets16);
  ExpectIntsReadBack(nulls.column(0), all_null, "all NULL");
  EXPECT_EQ(nulls.column(0).Int64At(1), 0);
  EXPECT_TRUE(nulls.stats(0).ToInterval().all_null);
  EXPECT_EQ(nulls.column(0).MemoryBytes(),
            3 * sizeof(uint16_t) + sizeof(uint64_t));
}

/// Decoding never reads the zone map: dropping and backfilling stats
/// leaves every value, the layout and the zone maps as they were.
TEST(FrameOfReferenceTest, DropStatsAndBackfillLeaveValuesAndLayout) {
  Schema schema({Field{"n", DataType::kInt64, true},
                 Field{"w", DataType::kInt64, false}});
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 24; ++i) {
    rows.push_back({i % 5 == 0 ? Value::Null() : Value(-1000 + 37 * i),
                    Value(i % 2 == 0 ? kInt64Min + i : kInt64Max - i)});
  }
  auto table = testing_util::MakeTable("t", schema, rows, 8);
  auto read_all = [&] {
    std::vector<Value> cells;
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      const MicroPartition& part =
          table->partition_metadata(static_cast<PartitionId>(p));
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(part.column(c).layout(),
                  c == 0 ? ColumnLayout::kOffsets16 : ColumnLayout::kPlain)
            << "column " << c;
        for (size_t r = 0; r < part.column(c).size(); ++r) {
          cells.push_back(part.column(c).ValueAt(r));
        }
      }
    }
    return cells;
  };
  const std::vector<Value> before = read_all();
  const size_t bytes = table->MemoryBytes();
  std::vector<std::vector<ColumnStats>> stats;
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    stats.push_back(
        table->partition_metadata(static_cast<PartitionId>(p)).all_stats());
  }
  ASSERT_EQ(table->DropStatsOnFraction(1.0, 3), table->num_partitions());
  EXPECT_EQ(read_all(), before);
  ASSERT_EQ(table->BackfillMissingStats(), table->num_partitions());
  EXPECT_EQ(read_all(), before);
  EXPECT_EQ(table->MemoryBytes(), bytes);
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    const auto& now =
        table->partition_metadata(static_cast<PartitionId>(p)).all_stats();
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(Value::Compare(now[c].min, stats[p][c].min), 0);
      EXPECT_EQ(Value::Compare(now[c].max, stats[p][c].max), 0);
      EXPECT_EQ(now[c].null_count, stats[p][c].null_count);
    }
  }
}

/// The INSERT/UPDATE copy paths build a partition from a sealed one's
/// columns; sealing them again changes nothing.
TEST(FrameOfReferenceTest, CopiedSealedPartitionResealsIdempotently) {
  const std::vector<std::optional<int64_t>> cells = {40, std::nullopt, -3,
                                                     kTwoTo32 - 4};
  MicroPartition part = SealedInts(cells);
  ASSERT_EQ(part.column(0).layout(), ColumnLayout::kOffsets32);
  MicroPartition copy(1, part.columns());
  EXPECT_EQ(copy.column(0).layout(), ColumnLayout::kOffsets32);
  EXPECT_EQ(copy.column(0).MemoryBytes(), part.column(0).MemoryBytes());
  ExpectIntsReadBack(copy.column(0), cells, "copy");
  EXPECT_EQ(Value::Compare(copy.stats(0).min, part.stats(0).min), 0);
  EXPECT_EQ(Value::Compare(copy.stats(0).max, part.stats(0).max), 0);
}

/// One column of every layout Seal can pick, with NULLs at rows 0, 7, 8
/// (either side of a bitmap byte), 63, 64 (either side of a bitmap word)
/// and the last row.
struct LayoutCase {
  std::string name;
  DataType type;
  std::vector<Value> cells;  ///< Value::Null() for a NULL row.
  ColumnLayout layout;
};

/// Row i's offset from the base in a column spanning `range`: 0 at row 1,
/// `range` at row 2, in between elsewhere.
int64_t IntOffset(size_t i, int64_t range) {
  if (i == 1) return 0;
  if (i == 2) return range;
  return static_cast<int64_t>(i * 97) % range;
}

std::vector<LayoutCase> EveryLayout() {
  auto make = [](std::string name, DataType type, size_t rows,
                 ColumnLayout layout, auto value_of) {
    LayoutCase c{std::move(name), type, {}, layout};
    for (size_t i = 0; i < rows; ++i) {
      const bool null = i == 0 || i == 7 || i == 8 || i == 63 || i == 64 ||
                        i == rows - 1;
      c.cells.push_back(null ? Value::Null() : value_of(i));
    }
    return c;
  };
  auto str = [](const char* prefix, size_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%s%04zu", prefix, v);
    return Value(std::string(buf));
  };
  const int64_t base = -(int64_t{1} << 40);
  return {
      // Ranges of exactly 2^16 - 1, 2^16 and 2^32, from row 1 to row 2.
      make("int64 16-bit", DataType::kInt64, 600, ColumnLayout::kOffsets16,
           [&](size_t i) { return Value(base + IntOffset(i, 65535)); }),
      make("int64 32-bit", DataType::kInt64, 600, ColumnLayout::kOffsets32,
           [&](size_t i) { return Value(base + IntOffset(i, 65536)); }),
      make("int64 wide", DataType::kInt64, 600, ColumnLayout::kPlain,
           [&](size_t i) {
             return Value(base + IntOffset(i, int64_t{1} << 32));
           }),
      // 256 entries still take 8-bit codes; 257 take 16-bit ones.
      make("string 8-bit codes", DataType::kString, 1000, ColumnLayout::kCodes8,
           [&](size_t i) { return str("c", i % 256); }),
      make("string 16-bit codes", DataType::kString, 1000,
           ColumnLayout::kCodes16, [&](size_t i) { return str("c", i % 257); }),
      // Every value distinct: a dictionary would not be smaller.
      make("string plain", DataType::kString, 600, ColumnLayout::kPlain,
           [&](size_t i) { return str("p", i); }),
  };
}

MicroPartition SealedColumn(const LayoutCase& c) {
  ColumnVector col(c.type);
  for (const Value& v : c.cells) col.AppendValue(v);
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(col));
  return MicroPartition(0, std::move(cols));
}

/// The zone map the cells call for, computed over boxed Values.
ColumnStats ExpectedStats(const std::vector<Value>& cells) {
  ColumnStats s;
  s.has_stats = true;
  s.row_count = static_cast<int64_t>(cells.size());
  for (const Value& v : cells) {
    if (v.is_null()) {
      ++s.null_count;
    } else if (s.min.is_null()) {
      s.min = s.max = v;
    } else {
      if (Value::Compare(v, s.min) < 0) s.min = v;
      if (Value::Compare(v, s.max) > 0) s.max = v;
    }
  }
  return s;
}

void ExpectSameStats(const ColumnStats& got, const ColumnStats& want,
                     const std::string& ctx) {
  EXPECT_EQ(got.has_stats, want.has_stats) << ctx;
  EXPECT_EQ(got.row_count, want.row_count) << ctx;
  EXPECT_EQ(got.null_count, want.null_count) << ctx;
  EXPECT_TRUE(got.min == want.min) << ctx << " min " << got.min.ToString();
  EXPECT_TRUE(got.max == want.max) << ctx << " max " << got.max.ToString();
}

/// Every cell reads back through ValueAt, IsNull, WithNullTest and the
/// typed readers (Int64At and WithInt64s, or StringAt, WithStrings and
/// WithStringMatches on both its paths), and the layout is the expected one.
void ExpectLayoutReadsBack(const ColumnVector& col, const LayoutCase& c,
                           const std::string& ctx) {
  ASSERT_EQ(col.size(), c.cells.size()) << ctx;
  EXPECT_EQ(col.layout(), c.layout) << ctx;
  const size_t n = col.size();
  std::vector<bool> nulls;
  WithNullTest(col, [&](auto is_null) {
    for (size_t r = 0; r < n; ++r) nulls.push_back(is_null(r));
  });
  std::vector<Value> typed(n);
  if (c.type == DataType::kInt64) {
    WithInt64s(col, [&](auto at) {
      for (size_t r = 0; r < n; ++r) typed[r] = Value(at(r));
    });
  } else {
    WithStrings(col, [&](auto at) {
      for (size_t r = 0; r < n; ++r) typed[r] = Value(std::string(at(r)));
    });
  }
  // "Ends in an odd digit", per dictionary entry and per row (a NULL row
  // asks about its slot too).
  auto odd = [](std::string_view s) {
    return !s.empty() && (s.back() - '0') % 2 == 1;
  };
  std::vector<bool> per_entry, per_row;
  if (c.type == DataType::kString) {
    WithStringMatches(col, n, odd, [&](auto match_at) {
      for (size_t r = 0; r < n; ++r) per_entry.push_back(match_at(r));
    });
    WithStringMatches(col, 1, odd, [&](auto match_at) {
      for (size_t r = 0; r < n; ++r) per_row.push_back(match_at(r));
    });
  }
  for (size_t r = 0; r < n; ++r) {
    const Value& want = c.cells[r];
    const std::string at = ctx + " row " + std::to_string(r);
    EXPECT_EQ(col.IsNull(r), want.is_null()) << at;
    EXPECT_EQ(nulls[r], want.is_null()) << at;
    EXPECT_TRUE(col.ValueAt(r) == want) << at;
    if (want.is_null()) continue;
    EXPECT_TRUE(typed[r] == want) << at;
    if (c.type == DataType::kInt64) {
      EXPECT_EQ(col.Int64At(r), want.int64_value()) << at;
    } else {
      EXPECT_EQ(col.StringAt(r), want.string_value()) << at;
      EXPECT_EQ(per_entry[r], odd(want.string_value())) << at;
      EXPECT_EQ(per_row[r], odd(want.string_value())) << at;
    }
  }
}

/// Each layout reads back exactly, with the zone map its cells call for,
/// when sealed, sealed a second time, copied into a new partition (the
/// INSERT and UPDATE copy paths) and after its stats are dropped and
/// backfilled; none of these changes the layout, the bytes or the zone map.
TEST(ColumnLayoutTest, EveryLayoutReadsBackThroughEveryPath) {
  for (const LayoutCase& c : EveryLayout()) {
    MicroPartition part = SealedColumn(c);
    const ColumnVector& col = part.column(0);
    ExpectLayoutReadsBack(col, c, c.name);
    const ColumnStats want = ExpectedStats(c.cells);
    ExpectSameStats(part.stats(0), want, c.name);
    ExpectSameStats(col.ComputeStats(), want, c.name + " recomputed");
    const size_t bytes = col.MemoryBytes();

    ColumnVector twice = col;
    ColumnVector::Replaced replaced;
    ExpectSameStats(twice.Seal(&replaced), want, c.name + " sealed twice");
    ExpectLayoutReadsBack(twice, c, c.name + " sealed twice");
    EXPECT_EQ(twice.MemoryBytes(), bytes) << c.name;

    MicroPartition copy(1, part.columns());
    ExpectLayoutReadsBack(copy.column(0), c, c.name + " copied");
    ExpectSameStats(copy.stats(0), want, c.name + " copied");
    EXPECT_EQ(copy.MemoryBytes(), bytes) << c.name;

    Table table("t", Schema({Field{"x", c.type, true}}));
    table.AppendPartition(SealedColumn(c));
    ASSERT_EQ(table.DropStatsOnFraction(1.0, 7), 1u);
    EXPECT_FALSE(table.stats(0, 0).has_stats);
    ASSERT_EQ(table.BackfillMissingStats(), 1u);
    ExpectSameStats(table.stats(0, 0), want, c.name + " backfilled");
    ExpectLayoutReadsBack(table.partition_metadata(0).column(0), c,
                          c.name + " backfilled");
    EXPECT_EQ(table.MemoryBytes(), bytes) << c.name;
  }
}

/// Exact bytes of each string layout: the dictionary's entries (offsets and
/// bytes) plus one code per row, chosen only when smaller than the plain
/// offsets and arena, which the plain fallback keeps exactly. Each bitmap
/// is one bit per row in 64-bit words.
TEST(ColumnLayoutTest, StringLayoutsHoldExactBytes) {
  const std::vector<LayoutCase> cases = EveryLayout();
  const size_t bitmap = (1000 + 63) / 64 * sizeof(uint64_t);
  // 256 entries of 5 bytes, 1000 one-byte codes.
  EXPECT_EQ(SealedColumn(cases[3]).MemoryBytes(),
            257 * sizeof(uint32_t) + 256 * 5 + 1000 + bitmap);
  // 257 entries of 5 bytes, 1000 two-byte codes.
  EXPECT_EQ(SealedColumn(cases[4]).MemoryBytes(),
            258 * sizeof(uint32_t) + 257 * 5 + 1000 * sizeof(uint16_t) +
                bitmap);
  // 594 non-NULL cells of 5 bytes and 601 offsets.
  EXPECT_EQ(SealedColumn(cases[5]).MemoryBytes(),
            601 * sizeof(uint32_t) + 594 * 5 + (600 + 63) / 64 * 8);
}

/// A dictionary is kept only when it is smaller than the plain layout, so
/// sealing never grows a column: two distinct values over two rows stay
/// plain, and so does an all-NULL column, which has no entry for its NULL
/// slots to hold.
TEST(ColumnLayoutTest, SealingNeverGrowsAStringColumn) {
  auto seal = [](ColumnVector col) {
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(col));
    return MicroPartition(0, std::move(cols));
  };
  ColumnVector two(DataType::kString);
  two.AppendString("x");
  two.AppendString("y");
  ColumnVector all_null(DataType::kString);
  for (int i = 0; i < 100; ++i) all_null.AppendNull();
  ColumnVector repeated(DataType::kString);
  for (int i = 0; i < 3; ++i) repeated.AppendString("same");

  MicroPartition plain = seal(std::move(two));
  EXPECT_EQ(plain.column(0).layout(), ColumnLayout::kPlain);
  EXPECT_EQ(plain.column(0).MemoryBytes(), 3 * sizeof(uint32_t) + 2);
  MicroPartition nulls = seal(std::move(all_null));
  EXPECT_EQ(nulls.column(0).layout(), ColumnLayout::kPlain);
  EXPECT_TRUE(nulls.stats(0).ToInterval().all_null);
  // 16 plain bytes (4 offsets, 12 arena) against 8 + 4 + 3 coded.
  MicroPartition coded = seal(std::move(repeated));
  EXPECT_EQ(coded.column(0).layout(), ColumnLayout::kCodes8);
  EXPECT_EQ(coded.column(0).MemoryBytes(), 2 * sizeof(uint32_t) + 4 + 3);
  EXPECT_EQ(coded.column(0).StringAt(2), "same");
}

/// Footprint guard: the fact table of the scan_heavy benchmark (id, key,
/// val, cat, ts; 500 rows per partition, 1% NULL val, random key layout)
/// takes the expected layout in every partition (id and ts span 499, key up
/// to 1M, cat ~180 distinct values) and exactly the measured bytes, so a
/// layout regression fails here and not only in the benchmark.
TEST(ColumnLayoutTest, FactTableFootprintIsPinned) {
  workload::TableGenConfig cfg;
  cfg.name = "fact";
  cfg.layout = workload::Layout::kRandom;
  cfg.num_partitions = 64;
  cfg.rows_per_partition = 500;
  cfg.null_fraction = 0.01;
  auto table = workload::SyntheticTable(cfg);
  const ColumnLayout expected[] = {
      ColumnLayout::kOffsets16, ColumnLayout::kOffsets32, ColumnLayout::kPlain,
      ColumnLayout::kCodes8, ColumnLayout::kOffsets16};
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    const MicroPartition& part =
        table->partition_metadata(static_cast<PartitionId>(p));
    ASSERT_EQ(part.num_columns(), 5u);
    for (size_t c = 0; c < part.num_columns(); ++c) {
      EXPECT_EQ(part.column(c).layout(), expected[c])
          << "partition " << p << " column " << c;
    }
  }
  // 20.35 bytes per row: 2 each for id and ts, 4 for key, 8 plus a bit
  // for val, ~4.2 for cat's codes and dictionary.
  ASSERT_EQ(table->num_rows(), 32000);
  EXPECT_EQ(table->MemoryBytes(), 651105u);
}

TEST(TableBuilderTest, CutsPartitionsAtTarget) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 25; ++i) {
    rows.push_back({Value(int64_t{i}), Value("r" + std::to_string(i))});
  }
  auto table = testing_util::MakeTable("t", TwoColSchema(), rows, 10);
  EXPECT_EQ(table->num_partitions(), 3u);
  EXPECT_EQ(table->num_rows(), 25);
  EXPECT_EQ(table->partition_metadata(0).row_count(), 10);
  EXPECT_EQ(table->partition_metadata(2).row_count(), 5);
  // Zone maps are per partition.
  EXPECT_EQ(table->stats(0, 0).max.int64_value(), 9);
  EXPECT_EQ(table->stats(1, 0).min.int64_value(), 10);
}

TEST(TableBuilderTest, RejectsArityAndTypeMismatch) {
  TableBuilder builder("t", TwoColSchema(), 10);
  EXPECT_FALSE(builder.AppendRow({Value(int64_t{1})}).ok());
  EXPECT_FALSE(builder.AppendRow({Value("str"), Value("b")}).ok());
  EXPECT_TRUE(builder.AppendRow({Value(int64_t{1}), Value("b")}).ok());
  // Int literals may land in float columns.
  Schema float_schema({Field{"f", DataType::kFloat64, true}});
  TableBuilder fb("f", float_schema, 4);
  EXPECT_TRUE(fb.AppendRow({Value(int64_t{3})}).ok());
}

TEST(TableBuilderTest, RejectedRowLeavesColumnsAligned) {
  Schema schema({Field{"a", DataType::kInt64, false},
                 Field{"b", DataType::kString, true},
                 Field{"c", DataType::kFloat64, true},
                 Field{"d", DataType::kInt64, true}});
  TableBuilder builder("t", schema, 10);
  ASSERT_TRUE(builder
                  .AppendRow({Value(int64_t{1}), Value("x"), Value(1.5),
                              Value(int64_t{10})})
                  .ok());
  // Columns 0-2 are valid; column 3 carries a string.
  Status bad = builder.AppendRow(
      {Value(int64_t{2}), Value("y"), Value(2.5), Value("not an int")});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  // A rejected row carrying a NULL touches no column: column 2 must not
  // gain a mask from it.
  EXPECT_FALSE(builder
                   .AppendRow({Value(int64_t{2}), Value("y"), Value::Null(),
                               Value("not an int")})
                   .ok());
  ASSERT_TRUE(builder
                  .AppendRow({Value(int64_t{3}), Value::Null(), Value(3.5),
                              Value(int64_t{30})})
                  .ok());
  auto table = builder.Finish();
  ASSERT_EQ(table->num_partitions(), 1u);
  const MicroPartition& part = table->partition_metadata(0);
  EXPECT_EQ(part.row_count(), 2);
  for (const ColumnVector& col : part.columns()) {
    EXPECT_EQ(col.size(), 2u);
  }
  // The row after the rejected one landed at index 1 in every column.
  EXPECT_EQ(part.column(0).Int64At(1), 3);
  EXPECT_TRUE(part.column(1).IsNull(1));
  EXPECT_EQ(part.column(2).Float64At(1), 3.5);
  EXPECT_EQ(part.column(3).Int64At(1), 30);
  EXPECT_EQ(table->stats(0, 0).max.int64_value(), 3);
  // Only column 1 saw a NULL; the others hold no mask, and their rows
  // still read back valid.
  ASSERT_TRUE(part.column(1).has_nulls());
  EXPECT_FALSE(part.column(1).IsNull(0));
  for (size_t c : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_FALSE(part.column(c).has_nulls()) << "column " << c;
    EXPECT_FALSE(part.column(c).IsNull(0)) << "column " << c;
    EXPECT_FALSE(part.column(c).IsNull(1)) << "column " << c;
  }
}

TEST(TableBuilderTest, RejectsNullInNonNullableColumn) {
  Schema schema({Field{"a", DataType::kInt64, false}});
  TableBuilder builder("t", schema, 4);
  EXPECT_FALSE(builder.AppendRow({Value::Null()}).ok());
}

TEST(TableTest, LoadMetering) {
  auto table = testing_util::IntTable("t", "x", {{1, 2}, {3, 4}, {5}});
  EXPECT_EQ(table->load_count(), 0);
  table->LoadPartition(1);
  table->LoadPartition(2);
  EXPECT_EQ(table->load_count(), 2);
  EXPECT_EQ(table->loaded_rows(), 3);
  // Metadata access does not meter.
  (void)table->stats(0, 0);
  EXPECT_EQ(table->load_count(), 2);
  table->ResetMeters();
  EXPECT_EQ(table->load_count(), 0);
}

TEST(TableTest, DmlBumpsVersion) {
  auto table = testing_util::IntTable("t", "x", {{1}, {2}, {3}});
  uint64_t v0 = table->dml_version();
  table->DeletePartition(1);
  EXPECT_GT(table->dml_version(), v0);
  EXPECT_EQ(table->num_partitions(), 2u);
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(42);
  table->ReplacePartition(0, MicroPartition(0, {std::move(col)}));
  EXPECT_EQ(table->stats(0, 0).max.int64_value(), 42);
}

TEST(TableTest, DropAndBackfillStats) {
  auto table = testing_util::IntTable("t", "x", {{1, 2}, {3, 4}, {5, 6}, {7}});
  size_t dropped = table->DropStatsOnFraction(1.0, /*seed=*/1);
  EXPECT_EQ(dropped, 4u);
  EXPECT_FALSE(table->partition_metadata(0).has_stats());
  EXPECT_FALSE(table->stats(0, 0).has_stats);
  // Backfill performs metered loads (§8.1) and restores zone maps.
  table->ResetMeters();
  size_t backfilled = table->BackfillMissingStats();
  EXPECT_EQ(backfilled, 4u);
  EXPECT_EQ(table->load_count(), 4);
  EXPECT_TRUE(table->stats(0, 0).has_stats);
  EXPECT_EQ(table->stats(3, 0).min.int64_value(), 7);
  // Second backfill is a no-op.
  EXPECT_EQ(table->BackfillMissingStats(), 0u);
}

/// §8.1: dropping a partition's zone maps and backfilling them by a scan
/// changes no NULL answer and no mask's presence. Whether a column has a
/// mask is its own fact, never read from the stats, and after the backfill
/// the mask and the zone map agree again (no mask ⇔ null_count == 0).
TEST(TableTest, DropAndBackfillKeepNullAnswersAndMasks) {
  Schema schema({Field{"k", DataType::kInt64, false},
                 Field{"v", DataType::kFloat64, true},
                 Field{"s", DataType::kString, true}});
  std::vector<std::vector<Value>> rows;
  for (int64_t i = 0; i < 40; ++i) {
    // Partitions of 8: v is NULL-free in partitions 0 and 3, all-NULL in 1,
    // mixed in 2 and 4; s is NULL only in partition 4.
    const int64_t p = i / 8;
    const bool v_null = p == 1 || ((p == 2 || p == 4) && i % 3 == 0);
    rows.push_back({Value(i), v_null ? Value::Null() : Value(0.25 * i),
                    p == 4 && i % 2 == 0 ? Value::Null()
                                         : Value("s" + std::to_string(i))});
  }
  auto table = testing_util::MakeTable("t", schema, rows, 8);
  ASSERT_EQ(table->num_partitions(), 5u);
  auto snapshot = [&] {
    std::vector<std::vector<int>> answers;  // per (partition, column)
    for (size_t p = 0; p < table->num_partitions(); ++p) {
      const MicroPartition& part =
          table->partition_metadata(static_cast<PartitionId>(p));
      for (const ColumnVector& col : part.columns()) {
        std::vector<int> a = {col.has_nulls() ? 1 : -1};
        for (size_t r = 0; r < col.size(); ++r) a.push_back(col.IsNull(r));
        answers.push_back(std::move(a));
      }
    }
    return answers;
  };
  const auto before = snapshot();
  EXPECT_FALSE(table->partition_metadata(0).column(1).has_nulls());
  EXPECT_TRUE(table->partition_metadata(1).column(1).has_nulls());
  EXPECT_TRUE(table->partition_metadata(2).column(1).has_nulls());
  EXPECT_FALSE(table->partition_metadata(2).column(2).has_nulls());
  EXPECT_TRUE(table->partition_metadata(4).column(2).has_nulls());

  ASSERT_EQ(table->DropStatsOnFraction(1.0, /*seed=*/1), 5u);
  EXPECT_EQ(snapshot(), before);
  ASSERT_EQ(table->BackfillMissingStats(), 5u);
  EXPECT_EQ(snapshot(), before);
  for (size_t p = 0; p < table->num_partitions(); ++p) {
    const auto pid = static_cast<PartitionId>(p);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(table->partition_metadata(pid).column(c).has_nulls(),
                table->stats(pid, c).null_count != 0)
          << "partition " << p << " column " << c;
    }
  }
}

TEST(ScanSetTest, AllOfAndSerializedBytes) {
  ScanSet s = ScanSet::AllOf(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[2], 2u);
  EXPECT_EQ(s.SerializedBytes(), 8u + 12u);
  s.Clear();
  EXPECT_TRUE(s.empty());
}

TEST(CatalogTest, RegisterLookupDrop) {
  Catalog catalog;
  auto t = testing_util::IntTable("orders", "x", {{1}});
  EXPECT_TRUE(catalog.RegisterTable(t).ok());
  EXPECT_FALSE(catalog.RegisterTable(t).ok());  // duplicate
  EXPECT_NE(catalog.GetTable("orders"), nullptr);
  EXPECT_EQ(catalog.GetTable("missing"), nullptr);
  EXPECT_EQ(catalog.TotalPartitions(), 1);
  t->LoadPartition(0);
  EXPECT_EQ(catalog.TotalLoads(), 1);
  EXPECT_TRUE(catalog.DropTable("orders").ok());
  EXPECT_FALSE(catalog.DropTable("orders").ok());
}

}  // namespace
}  // namespace snowprune
