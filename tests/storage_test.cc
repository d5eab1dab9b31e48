#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/scan_set.h"
#include "storage/table.h"
#include "test_util.h"

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
