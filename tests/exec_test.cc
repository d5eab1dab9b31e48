#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/column_batch.h"
#include "exec/engine.h"
#include "exec/profile.h"
#include "exec/scan_op.h"
#include "expr/builder.h"
#include "expr/evaluator.h"
#include "shard/coordinator.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using testing_util::IntTable;
using testing_util::MakeTable;

/// A catalog with one clustered fact table and one small dimension table.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::TableGenConfig fact_cfg;
    fact_cfg.name = "fact";
    fact_cfg.num_partitions = 50;
    fact_cfg.rows_per_partition = 200;
    fact_cfg.layout = workload::Layout::kSorted;
    fact_cfg.domain_min = 0;
    fact_cfg.domain_max = 100000;
    fact_cfg.seed = 11;
    fact_ = workload::SyntheticTable(fact_cfg);
    ASSERT_TRUE(catalog_.RegisterTable(fact_).ok());

    // Dimension: 20 rows keyed into a narrow slice of fact's key domain.
    Schema dim_schema({Field{"dkey", DataType::kInt64, false},
                       Field{"dname", DataType::kString, false}});
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 20; ++i) {
      rows.push_back({Value(int64_t{500 + i}), Value("d" + std::to_string(i))});
    }
    dim_ = MakeTable("dim", dim_schema, rows, 20);
    ASSERT_TRUE(catalog_.RegisterTable(dim_).ok());
  }

  QueryResult Run(const PlanPtr& plan) {
    Engine engine(&catalog_, config_);
    auto result = engine.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  Catalog catalog_;
  EngineConfig config_;
  std::shared_ptr<Table> fact_;
  std::shared_ptr<Table> dim_;
};

TEST_F(ExecTest, ScanWithFilterPruning) {
  auto plan = ScanPlan("fact", Between(Col("key"), Value(int64_t{1000}),
                                       Value(int64_t{1999})));
  QueryResult r = Run(plan);
  EXPECT_GT(r.stats.pruned_by_filter, 40);
  EXPECT_LT(r.stats.scanned_partitions, 5);
  for (const auto& row : r.rows) {
    int64_t key = row[1].int64_value();
    EXPECT_GE(key, 1000);
    EXPECT_LE(key, 1999);
  }
  // Pruning off yields the same rows but scans everything.
  config_.enable_filter_pruning = false;
  QueryResult r2 = Run(plan);
  EXPECT_EQ(r2.rows.size(), r.rows.size());
  EXPECT_EQ(r2.stats.scanned_partitions, 50);
}

TEST_F(ExecTest, ProjectComputesExpressions) {
  auto plan = ProjectPlan(
      ScanPlan("fact", Lt(Col("id"), Lit(3))),
      {Col("id"), Mul(Col("key"), Lit(2))}, {"id", "double_key"});
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.schema.field(1).name, "double_key");
  for (const auto& row : r.rows) {
    EXPECT_EQ(row.size(), 2u);
  }
}

TEST_F(ExecTest, LimitPruningReducesScanSet) {
  auto plan = LimitPlan(ScanPlan("fact"), 5);
  QueryResult r = Run(plan);
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.limit_class, LimitClassification::kPrunedToOne);
  EXPECT_EQ(r.stats.pruned_by_limit, 49);
  EXPECT_EQ(r.stats.scanned_partitions, 1);
}

TEST_F(ExecTest, LimitWithOffsetSkipsPrefixAndPrunesForBoth) {
  auto plan = LimitPlan(ScanPlan("fact"), /*k=*/5, /*offset=*/3);
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 5u);
  // OFFSET semantics: rows 3..7 of the equivalent offset-free LIMIT 8.
  QueryResult base = Run(LimitPlan(ScanPlan("fact"), /*k=*/8));
  ASSERT_EQ(base.rows.size(), 8u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.rows[i][0].int64_value(), base.rows[i + 3][0].int64_value());
  }
  // Pruning covered offset + k = 8 rows: still one partition.
  EXPECT_EQ(r.limit_class, LimitClassification::kPrunedToOne);
  EXPECT_EQ(r.stats.scanned_partitions, 1);
}

TEST_F(ExecTest, LimitZeroScansNothing) {
  auto plan = LimitPlan(ScanPlan("fact"), 0);
  QueryResult r = Run(plan);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.limit_class, LimitClassification::kPrunedToZero);
  EXPECT_EQ(r.stats.scanned_partitions, 0);
}

TEST_F(ExecTest, LimitWithSelectivePredicateUsesFullyMatching) {
  // Predicate covers partitions [10..20) fully; LIMIT needs one of them.
  auto plan = LimitPlan(
      ScanPlan("fact", Between(Col("key"), Value(int64_t{20000}),
                               Value(int64_t{40000}))),
      10);
  QueryResult r = Run(plan);
  EXPECT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(r.limit_class, LimitClassification::kPrunedToOne);
  EXPECT_EQ(r.stats.scanned_partitions, 1);
  for (const auto& row : r.rows) {
    EXPECT_GE(row[1].int64_value(), 20000);
    EXPECT_LE(row[1].int64_value(), 40000);
  }
}

TEST_F(ExecTest, LimitOverAggregateIsUnsupportedShape) {
  auto agg = AggregatePlan(ScanPlan("fact"), {"cat"},
                           {{AggFunc::kCount, "", "n"}});
  QueryResult r = Run(LimitPlan(agg, 3));
  EXPECT_EQ(r.limit_class, LimitClassification::kUnsupportedShape);
  EXPECT_EQ(r.rows.size(), 3u);
}

// ------------------------------------------------ Figure 7 top-k shapes ----

TEST_F(ExecTest, TopKOverScan_Fig7a) {
  auto plan = TopKPlan(ScanPlan("fact"), "key", /*descending=*/true, 10);
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 10u);
  EXPECT_TRUE(r.topk_pruning_attached);
  // Sorted table + full-sort processing: nearly everything pruned at runtime.
  EXPECT_GE(r.stats.pruned_by_topk, 45);
  // Results must equal the full-sort baseline.
  EngineConfig no_prune = config_;
  no_prune.enable_topk_pruning = false;
  Engine baseline_engine(&catalog_, no_prune);
  auto baseline = baseline_engine.Execute(plan);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline.value().rows.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(r.rows[i][1].int64_value(),
              baseline.value().rows[i][1].int64_value());
  }
}

TEST_F(ExecTest, TopKWithFilter_Fig7a) {
  auto plan = TopKPlan(
      ScanPlan("fact", Lt(Col("key"), Lit(int64_t{50000}))), "key",
      /*descending=*/true, 5);
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 5u);
  for (const auto& row : r.rows) EXPECT_LT(row[1].int64_value(), 50000);
  EXPECT_GT(r.stats.pruned_by_filter + r.stats.pruned_by_topk, 40);
}

TEST_F(ExecTest, TopKOnJoinProbeSide_Fig7b) {
  auto join = JoinPlan(ScanPlan("fact"), ScanPlan("dim"), "key", "dkey");
  auto plan = TopKPlan(join, "key", /*descending=*/true, 3);
  QueryResult r = Run(plan);
  // dim keys are 500..519 -> join pruning keeps only the low fact partition;
  // top-k orders by the probe column.
  EXPECT_GT(r.stats.pruned_by_join, 40);
  for (const auto& row : r.rows) {
    EXPECT_GE(row[1].int64_value(), 500);
    EXPECT_LE(row[1].int64_value(), 519);
  }
}

TEST_F(ExecTest, TopKOnBuildOuterJoinBuildSide_Fig7c) {
  // Build side preserved: TopK on a build column replicates to the build
  // input and prunes the build scan.
  auto join = JoinPlan(ScanPlan("dim"), ScanPlan("fact"), "dkey", "key",
                       JoinKind::kBuildOuter);
  auto plan = TopKPlan(join, "key", /*descending=*/true, 4);
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 4u);
  EXPECT_TRUE(r.topk_pruning_attached);
  EXPECT_GT(r.stats.pruned_by_topk, 40);
  // Top keys of fact are the global maxima.
  EngineConfig no_prune = config_;
  no_prune.enable_topk_pruning = false;
  Engine baseline_engine(&catalog_, no_prune);
  auto baseline = baseline_engine.Execute(plan);
  ASSERT_TRUE(baseline.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.rows[i][3].int64_value(),
              baseline.value().rows[i][3].int64_value());
  }
}

TEST_F(ExecTest, TopKOverGroupBy_Fig7d) {
  auto agg = AggregatePlan(ScanPlan("fact"), {"key"},
                           {{AggFunc::kCount, "", "n"}});
  auto plan = TopKPlan(agg, "key", /*descending=*/true, 5);
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_TRUE(r.topk_pruning_attached);
  EXPECT_GT(r.stats.pruned_by_topk, 30);
  // Group keys descend.
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i - 1][0].int64_value(), r.rows[i][0].int64_value());
  }
  // Aggregates must match the unpruned run exactly (ties feed groups).
  EngineConfig no_prune = config_;
  no_prune.enable_topk_pruning = false;
  Engine baseline_engine(&catalog_, no_prune);
  auto baseline = baseline_engine.Execute(plan);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline.value().rows.size(), r.rows.size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_EQ(r.rows[i][0].int64_value(),
              baseline.value().rows[i][0].int64_value());
    EXPECT_EQ(r.rows[i][1].int64_value(),
              baseline.value().rows[i][1].int64_value());
  }
}

TEST_F(ExecTest, TopKOrderByAggregateIsNotPruned) {
  auto agg = AggregatePlan(ScanPlan("fact"), {"cat"},
                           {{AggFunc::kSum, "val", "total"}});
  auto plan = TopKPlan(agg, "total", /*descending=*/true, 3);
  QueryResult r = Run(plan);
  EXPECT_FALSE(r.topk_pruning_attached);  // §5.2: unsupported
  EXPECT_EQ(r.stats.pruned_by_topk, 0);
  EXPECT_EQ(r.rows.size(), 3u);
}

// ----------------------------------------------------------------- Join ----

TEST_F(ExecTest, JoinPruningAndCorrectness) {
  auto plan = JoinPlan(ScanPlan("fact"), ScanPlan("dim"), "key", "dkey");
  QueryResult r = Run(plan);
  EXPECT_GT(r.stats.pruned_by_join, 40);
  // Cross-check row count against a no-pruning run.
  config_.enable_join_pruning = false;
  QueryResult full = Run(plan);
  EXPECT_EQ(full.stats.pruned_by_join, 0);
  EXPECT_EQ(full.rows.size(), r.rows.size());
  EXPECT_GT(full.stats.scanned_partitions, r.stats.scanned_partitions);
}

TEST_F(ExecTest, EmptyBuildSidePrunesWholeProbe) {
  auto plan = JoinPlan(ScanPlan("fact"),
                       ScanPlan("dim", Lt(Col("dkey"), Lit(0))), "key", "dkey");
  QueryResult r = Run(plan);
  EXPECT_TRUE(r.rows.empty());
  // Probe scan never loads a single partition (Figure 10's 100% group).
  EXPECT_EQ(fact_->load_count(), 0);
  fact_->ResetMeters();
}

TEST_F(ExecTest, ProbeOuterJoinKeepsUnmatchedProbeRows) {
  auto probe = ScanPlan("fact", Lt(Col("id"), Lit(5)));
  auto build = ScanPlan("dim", Lt(Col("dkey"), Lit(0)));  // empty build
  auto plan = JoinPlan(probe, build, "key", "dkey", JoinKind::kProbeOuter);
  // With join pruning enabled (the default) AND disabled: the engine must
  // not wire §6 summary pruning onto the probe scan of a probe-preserved
  // join — every probe row survives null-padded even when the build side
  // proves it unmatchable.
  for (bool pruning : {true, false}) {
    EngineConfig cfg;
    cfg.enable_join_pruning = pruning;
    Engine engine(&catalog_, cfg);
    auto r = engine.Execute(plan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().rows.size(), 5u) << "join pruning " << pruning;
    for (const auto& row : r.value().rows) {
      EXPECT_TRUE(row.back().is_null());  // dim columns null-padded
    }
  }
}

// ------------------------------------------------------------ Row eval ----

TEST(RowEvalTest, AgreesWithPartitionEvaluator) {
  Schema schema({Field{"x", DataType::kInt64, true},
                 Field{"s", DataType::kString, true}});
  auto table = MakeTable("t", schema,
                         {{Value(int64_t{4}), Value("abc")},
                          {Value::Null(), Value("zzz")},
                          {Value(int64_t{-2}), Value::Null()}},
                         3);
  std::vector<ExprPtr> exprs = {
      Gt(Col("x"), Lit(0)),
      And({Like(Col("s"), "a%"), IsNotNull(Col("x"))}),
      If(IsNull(Col("x")), Lit(-1), Add(Col("x"), Lit(1))),
      NotTrue(Eq(Col("s"), Lit("abc"))),
  };
  const MicroPartition& part = table->partition_metadata(0);
  for (const auto& e : exprs) {
    ASSERT_TRUE(BindExpr(e, schema).ok());
    for (size_t i = 0; i < 3; ++i) {
      Row row = {part.column(0).ValueAt(i), part.column(1).ValueAt(i)};
      EXPECT_EQ(EvalScalar(*e, row), EvalScalar(*e, part, i))
          << e->ToString();
    }
  }
}

// ------------------------------------- ColumnBatch (unboxed scan path) ----

/// A small mixed-type partition: int64 (with NULL), string (with NULL),
/// bool.
std::shared_ptr<Table> MixedTable() {
  Schema schema({Field{"x", DataType::kInt64, true},
                 Field{"s", DataType::kString, true},
                 Field{"b", DataType::kBool, true}});
  return MakeTable("mix", schema,
                   {{Value(int64_t{4}), Value("abc"), Value(true)},
                    {Value::Null(), Value("zzz"), Value(false)},
                    {Value(int64_t{-2}), Value::Null(), Value(true)},
                    {Value(int64_t{7}), Value("abd"), Value::Null()}},
                   4);
}

TEST(ColumnBatchTest, AllOfCoversEveryRowAndMaterializesBoxed) {
  auto table = MixedTable();
  const MicroPartition& part = table->partition_metadata(0);
  ColumnBatch batch = ColumnBatch::AllOf(part, /*source=*/0);
  ASSERT_EQ(batch.num_rows(), 4u);
  EXPECT_EQ(batch.num_columns(), 3u);
  EXPECT_EQ(batch.source(), PartitionId{0});
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(batch.row_index(i), i);

  Batch boxed = batch.Materialize(/*track_source=*/true);
  ASSERT_EQ(boxed.rows.size(), 4u);
  ASSERT_TRUE(boxed.has_source());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(boxed.source[i], PartitionId{0});
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(boxed.rows[i][c] == part.column(c).ValueAt(i))
          << "row " << i << " col " << c;
    }
  }
}

TEST(ColumnBatchTest, SelectionSubsetsAndPreservesOrder) {
  auto table = MixedTable();
  const MicroPartition& part = table->partition_metadata(0);
  ColumnBatch batch = ColumnBatch::Selected(part, /*source=*/0, {1, 3});
  ASSERT_EQ(batch.num_rows(), 2u);
  EXPECT_EQ(batch.row_index(0), 1u);
  EXPECT_EQ(batch.row_index(1), 3u);

  Batch boxed = batch.Materialize(/*track_source=*/false);
  ASSERT_EQ(boxed.rows.size(), 2u);
  EXPECT_FALSE(boxed.has_source());
  EXPECT_TRUE(boxed.rows[0][1] == Value("zzz"));
  EXPECT_TRUE(boxed.rows[1][0] == Value(int64_t{7}));
}

TEST(ColumnBatchTest, EmptySelectionAndDefaultBatch) {
  auto table = MixedTable();
  const MicroPartition& part = table->partition_metadata(0);
  ColumnBatch empty_sel = ColumnBatch::Selected(part, /*source=*/0, {});
  EXPECT_EQ(empty_sel.num_rows(), 0u);
  Batch boxed = empty_sel.Materialize(true);
  EXPECT_TRUE(boxed.rows.empty());
  EXPECT_TRUE(boxed.source.empty());

  ColumnBatch unset;
  EXPECT_FALSE(unset.valid());
  EXPECT_EQ(unset.num_rows(), 0u);
  unset.MaterializeInto(&boxed, true);
  EXPECT_TRUE(boxed.rows.empty());
}

/// The vectorized selection path must agree row-for-row with the scalar
/// oracle, across vectorized shapes (comparisons, connectives, IN, LIKE,
/// IS NULL, column-column, bool column) AND shapes that take the scalar
/// fallback (arithmetic, IF).
TEST(ColumnBatchTest, VectorizedSelectionAgreesWithScalarMask) {
  auto table = MixedTable();
  Schema schema({Field{"x", DataType::kInt64, true},
                 Field{"s", DataType::kString, true},
                 Field{"b", DataType::kBool, true}});
  std::vector<ExprPtr> preds = {
      Gt(Col("x"), Lit(0)),
      Lt(Lit(0), Col("x")),                      // literal on the left
      Eq(Col("s"), Lit("abc")),
      Eq(Col("x"), Lit("abc")),                  // cross-kind → NULL
      Eq(Col("b"), Lit(true)),
      Col("b"),                                  // bare bool column
      And({Gt(Col("x"), Lit(-10)), Like(Col("s"), "ab%")}),
      Or({IsNull(Col("x")), StartsWith(Col("s"), "z")}),
      Not(Eq(Col("s"), Lit("abc"))),
      NotTrue(Gt(Col("x"), Lit(5))),
      In(Col("x"), {Value(int64_t{4}), Value(2.0), Value("x")}),
      In(Col("s"), {Value("zzz"), Value(int64_t{1})}),
      Eq(Col("x"), Col("x")),
      Lt(Col("x"), Col("x")),
      Gt(Add(Col("x"), Lit(1)), Lit(2)),         // arithmetic → fallback
      Gt(If(Col("b"), Col("x"), Lit(0)), Lit(1)),  // IF → fallback
      Le(Col("x"), Lit(4.5)),                    // int column vs float lit
  };
  const MicroPartition& part = table->partition_metadata(0);
  for (const auto& p : preds) {
    ASSERT_TRUE(BindExpr(p, schema).ok());
    std::vector<uint8_t> oracle = EvalPredicateMask(*p, part);
    std::vector<uint32_t> selection;
    ComputeSelection(*p, part, &selection);
    std::vector<uint32_t> expected;
    for (uint32_t r = 0; r < oracle.size(); ++r) {
      if (oracle[r]) expected.push_back(r);
    }
    EXPECT_EQ(selection, expected) << p->ToString();
    // The three-valued outcomes must also match the scalar evaluator.
    std::vector<uint8_t> outcomes;
    EvalPredicateOutcomes(*p, part, &outcomes);
    for (size_t r = 0; r < outcomes.size(); ++r) {
      auto scalar = EvalPredicate(*p, part, r);
      uint8_t want = !scalar.has_value() ? kPredNull
                                         : (*scalar ? kPredTrue : kPredFalse);
      EXPECT_EQ(outcomes[r], want) << p->ToString() << " row " << r;
    }
  }
}

/// TableScanOp's native output: one ColumnBatch per partition whose
/// selection equals the scalar predicate mask.
TEST_F(ExecTest, ScanEmitsColumnBatchesMatchingScalarOracle) {
  auto pred = Between(Col("key"), Value(int64_t{10000}), Value(int64_t{30000}));
  ASSERT_TRUE(BindExpr(pred, fact_->schema()).ok());
  TableScanOp scan(fact_, fact_->FullScanSet(), pred);
  scan.Open();
  ColumnBatch batch;
  size_t batches = 0;
  int64_t selected_rows = 0;
  while (scan.NextColumns(&batch)) {
    ++batches;
    ASSERT_TRUE(batch.valid());
    std::vector<uint8_t> oracle =
        EvalPredicateMask(*pred, *batch.partition());
    size_t oracle_count = 0;
    for (size_t r = 0; r < oracle.size(); ++r) {
      if (oracle[r]) ++oracle_count;
    }
    ASSERT_EQ(batch.num_rows(), oracle_count);
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      EXPECT_TRUE(oracle[batch.row_index(i)]);
    }
    selected_rows += static_cast<int64_t>(batch.num_rows());
  }
  scan.Close();
  EXPECT_EQ(batches, fact_->num_partitions());  // one batch per partition
  EXPECT_GT(selected_rows, 0);
  EXPECT_EQ(scan.ledger().scanned_partitions,
            static_cast<int64_t>(fact_->num_partitions()));
}

// ----------------------------------------------------- Engine misc ----------

TEST_F(ExecTest, SortAscendingAndDescending) {
  auto plan = SortPlan(ScanPlan("fact", Lt(Col("id"), Lit(100))), "key", false);
  QueryResult r = Run(plan);
  ASSERT_EQ(r.rows.size(), 100u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][1].int64_value(), r.rows[i][1].int64_value());
  }
}

/// Boxed and columnar inputs agree for every operator. Each case runs over
/// a bare scan (the operator reads ColumnBatches) and over an identity
/// projection (it reads boxed rows), at 1 and 4 threads; the row streams
/// must be byte-identical. The data has NULLs in every key and value
/// column, NaN float keys (CompareScalars ties a NaN with every number, so
/// a NaN join key matches every numeric key on both paths, while GROUP BY
/// makes all NaN keys one group), int64 columns in two layouts (the last
/// partition spans more than 2^32 and stays wide, the others narrow to
/// 16-bit offsets) and a dictionary-coded string column.
TEST_F(ExecTest, NanJoinKeysMatchBetweenColumnarAndBoxed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::string> names = {"g", "f", "s", "v"};
  Schema schema({Field{"g", DataType::kInt64, true},
                 Field{"f", DataType::kFloat64, true},
                 Field{"s", DataType::kString, true},
                 Field{"v", DataType::kInt64, true}});
  constexpr int kPartitions = 6, kRowsPerPartition = 8;
  auto make = [&](const std::string& name, int salt) {
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < kPartitions * kRowsPerPartition; ++i) {
      const int x = i * 7 + salt;
      // Some cells of the last partition are 2^40 larger: it stays wide.
      const int64_t lift =
          i / kRowsPerPartition == kPartitions - 1 ? int64_t{1} << 40 : 0;
      const Value null;
      Value g = i % 9 == 0 ? null : Value(x % 4 + (x % 5 == 0 ? lift : 0));
      Value f = i % 5 == 0   ? null
                : x % 6 == 1 ? Value(nan)
                             : Value(0.5 * (x % 3) - 1.0);
      Value s = i % 7 == 3 ? null : Value(std::string(1, 'a' + x % 3));
      Value v = i % 8 == 2 ? null : Value(x % 11 + (x % 3 == 0 ? lift : 0));
      rows.push_back({g, f, s, v});
    }
    return MakeTable(name, schema, rows, kRowsPerPartition);
  };
  ASSERT_TRUE(catalog_.RegisterTable(make("agree_p", 0)).ok());
  ASSERT_TRUE(catalog_.RegisterTable(make("agree_b", 3)).ok());
  {
    const Table& t = *catalog_.GetTable("agree_p");
    for (size_t c : {size_t{0}, size_t{3}}) {
      EXPECT_EQ(t.partition_metadata(0).column(c).layout(),
                ColumnLayout::kOffsets16);
      EXPECT_EQ(t.partition_metadata(kPartitions - 1).column(c).layout(),
                ColumnLayout::kPlain);
    }
    EXPECT_EQ(t.partition_metadata(0).column(2).layout(),
              ColumnLayout::kCodes8);
  }

  // The input as the operator reads it: columnar (a bare scan) or boxed.
  auto input = [&](const char* table, bool boxed) {
    if (!boxed) return ScanPlan(table);
    std::vector<ExprPtr> cols;
    for (const auto& n : names) cols.push_back(Col(n));
    return ProjectPlan(ScanPlan(table), std::move(cols), names);
  };
  const std::vector<AggPlanSpec> aggs = {
      {AggFunc::kCount, "", "n"},         {AggFunc::kSum, "v", "sum_v"},
      {AggFunc::kAvg, "v", "avg_v"},      {AggFunc::kMin, "f", "min_f"},
      {AggFunc::kMax, "f", "max_f"},      {AggFunc::kMin, "s", "min_s"},
      {AggFunc::kMax, "v", "max_v"},      {AggFunc::kSum, "f", "sum_f"}};
  using Shape = std::function<PlanPtr(bool boxed)>;
  std::vector<std::pair<std::string, Shape>> cases;
  // Each aggregate returns one row per distinct key: NULL is one key, and
  // so is NaN.
  std::map<std::string, size_t> groups;
  for (size_t c = 0; c < 3; ++c) {
    std::set<std::string> keys;
    const Table& t = *catalog_.GetTable("agree_p");
    for (size_t p = 0; p < t.num_partitions(); ++p) {
      const ColumnVector& col =
          t.partition_metadata(static_cast<PartitionId>(p)).column(c);
      for (size_t r = 0; r < col.size(); ++r) {
        keys.insert(col.ValueAt(r).ToString());
      }
    }
    groups["aggregate by " + names[c]] = keys.size();
  }
  EXPECT_EQ(groups["aggregate by f"], 5u);  // -1, -0.5, 0, NaN, NULL
  for (const std::string key : {"g", "f", "s"}) {
    cases.push_back({"join on " + key, [&, key](bool boxed) {
                       return JoinPlan(input("agree_p", boxed),
                                       input("agree_b", boxed), key, key);
                     }});
    cases.push_back({"aggregate by " + key, [&, key](bool boxed) {
                       return AggregatePlan(input("agree_p", boxed), {key},
                                            aggs);
                     }});
    cases.push_back({"top-k by " + key, [&, key](bool boxed) {
                       return TopKPlan(input("agree_p", boxed), key,
                                       /*descending=*/true, 7);
                     }});
    cases.push_back({"sort by " + key, [&, key](bool boxed) {
                       return SortPlan(input("agree_p", boxed), key,
                                       /*descending=*/false);
                     }});
  }
  for (int threads : {1, 4}) {
    config_.exec.num_threads = threads;
    for (const auto& [name, shape] : cases) {
      QueryResult columnar = Run(shape(false));
      QueryResult boxed = Run(shape(true));
      EXPECT_FALSE(columnar.rows.empty()) << name;
      EXPECT_EQ(testing_util::Serialize(columnar),
                testing_util::Serialize(boxed))
          << name << " at num_threads=" << threads;
      if (groups.count(name) != 0) {
        EXPECT_EQ(columnar.rows.size(), groups[name])
            << name << " at num_threads=" << threads;
        EXPECT_EQ(boxed.rows.size(), groups[name])
            << name << " at num_threads=" << threads;
      }
    }
  }
}

/// PR 4 acceptance: the boxed-row adapter must be gone from scan→join,
/// scan→top-k, scan→sort, and scan→aggregate pipelines — ColumnBatch flows
/// end to end and rows are boxed only at each pipeline's output boundary
/// (which is plain row construction, not Materialize()). Verified with the
/// process-wide Materialize() call counter, serially and in parallel.
TEST_F(ExecTest, ColumnarPipelinesNeverMaterializeScanBatches) {
  auto pred = Between(Col("key"), Value(int64_t{100}), Value(int64_t{90000}));
  const std::vector<std::pair<const char*, PlanPtr>> plans = {
      {"scan->join", JoinPlan(ScanPlan("fact", pred), ScanPlan("dim"), "key",
                              "dkey")},
      {"scan->topk", TopKPlan(ScanPlan("fact", pred), "key", true, 25)},
      {"scan->sort", SortPlan(ScanPlan("fact", pred), "key", false)},
      {"scan->agg",
       AggregatePlan(ScanPlan("fact", pred), {"cat"},
                     {AggPlanSpec{AggFunc::kCount, "", "n"},
                      AggPlanSpec{AggFunc::kMax, "key", "key_max"}})},
  };
  for (int threads : {1, 4}) {
    config_.exec.num_threads = threads;
    for (const auto& [name, plan] : plans) {
      const int64_t before = ColumnBatch::materialize_calls();
      QueryResult r = Run(plan);
      EXPECT_GT(r.rows.size(), 0u) << name;
      EXPECT_EQ(ColumnBatch::materialize_calls(), before)
          << name << " materialized a scan batch at num_threads=" << threads;
    }
  }
  // A bare scan, by contrast, must box at the result boundary — the adapter
  // still exists, it has just moved to the end of every pipeline.
  const int64_t before = ColumnBatch::materialize_calls();
  Run(ScanPlan("fact", pred));
  EXPECT_GT(ColumnBatch::materialize_calls(), before);
}

TEST_F(ExecTest, MissingTableFails) {
  Engine engine(&catalog_, config_);
  auto r = engine.Execute(ScanPlan("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecTest, ScanSetBytesShrinkWithPruning) {
  auto plan = ScanPlan("fact", Between(Col("key"), Value(int64_t{0}),
                                       Value(int64_t{999})));
  QueryResult pruned = Run(plan);
  config_.enable_filter_pruning = false;
  QueryResult full = Run(plan);
  EXPECT_LT(pruned.scan_set_bytes, full.scan_set_bytes);
}

TEST_F(ExecTest, LimitWithoutFilterPruningHasNoFullyMatching) {
  // Filter pruning is what classifies fully-matching partitions (§4.2);
  // without it a filtered LIMIT has none to prune down to.
  config_.enable_filter_pruning = false;
  auto limit_plan = LimitPlan(
      ScanPlan("fact", Between(Col("key"), Value(int64_t{20000}),
                               Value(int64_t{40000}))),
      10);
  QueryResult r = Run(limit_plan);
  EXPECT_EQ(r.limit_class, LimitClassification::kNoFullyMatching);
  EXPECT_EQ(r.rows.size(), 10u);
}

/// End-to-end top-k property: across layouts, directions, k, strategies and
/// predicates, the pruned engine returns exactly the baseline's key column.
struct TopKPropertyParam {
  workload::Layout layout;
  bool descending;
  OrderStrategy strategy;
};

class TopKPropertyTest : public ::testing::TestWithParam<TopKPropertyParam> {};

TEST_P(TopKPropertyTest, PrunedEqualsBaselineAcrossConfigs) {
  const TopKPropertyParam& param = GetParam();
  workload::TableGenConfig tcfg;
  tcfg.name = "t";
  tcfg.num_partitions = 30;
  tcfg.rows_per_partition = 80;
  tcfg.layout = param.layout;
  tcfg.null_fraction = 0.05;
  tcfg.seed = 77;
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(tcfg)).ok());

  EngineConfig on;
  on.topk_order_strategy = param.strategy;
  EngineConfig off;
  off.enable_topk_pruning = false;
  Engine engine_on(&catalog, on);
  Engine engine_off(&catalog, off);

  Rng rng(31);
  for (int round = 0; round < 8; ++round) {
    int64_t k = rng.UniformInt(1, 40);
    ExprPtr pred;
    if (rng.Bernoulli(0.5)) {
      int64_t lo = rng.UniformInt(0, 800000);
      pred = Between(Col("key"), Value(lo), Value(lo + 300000));
    }
    auto plan = TopKPlan(ScanPlan("t", std::move(pred)), "key",
                         param.descending, k);
    auto a = engine_on.Execute(plan);
    auto b = engine_off.Execute(plan);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
    for (size_t i = 0; i < a.value().rows.size(); ++i) {
      EXPECT_EQ(a.value().rows[i][1].int64_value(),
                b.value().rows[i][1].int64_value())
          << "k=" << k << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TopKPropertyTest,
    ::testing::Values(
        TopKPropertyParam{workload::Layout::kSorted, true,
                          OrderStrategy::kFullSort},
        TopKPropertyParam{workload::Layout::kSorted, false,
                          OrderStrategy::kFullSort},
        TopKPropertyParam{workload::Layout::kClustered, true,
                          OrderStrategy::kFullSort},
        TopKPropertyParam{workload::Layout::kClustered, true,
                          OrderStrategy::kNone},
        TopKPropertyParam{workload::Layout::kClustered, false,
                          OrderStrategy::kRandom},
        TopKPropertyParam{workload::Layout::kRandom, true,
                          OrderStrategy::kFullSort},
        TopKPropertyParam{workload::Layout::kRandom, false,
                          OrderStrategy::kNone}));

TEST_F(ExecTest, PredicateCacheRoundTrip) {
  PredicateCache cache;
  config_.predicate_cache = &cache;
  auto plan = TopKPlan(ScanPlan("fact"), "key", true, 5);
  QueryResult first = Run(plan);
  EXPECT_FALSE(first.predicate_cache_hit);
  QueryResult second = Run(plan);
  EXPECT_TRUE(second.predicate_cache_hit);
  ASSERT_EQ(second.rows.size(), first.rows.size());
  for (size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_EQ(first.rows[i][1].int64_value(), second.rows[i][1].int64_value());
  }
  // The cached run scans at most as many partitions.
  EXPECT_LE(second.stats.scanned_partitions, first.stats.scanned_partitions);
}

/// Ten partitions whose zone maps all overlap `a > 5 AND b > 5`, although
/// only partitions 2 and 7 hold a row satisfying both terms — the case
/// where a scan entry beats zone maps.
std::shared_ptr<Table> CorrelatedTable() {
  Schema schema({Field{"a", DataType::kInt64, false},
                 Field{"b", DataType::kInt64, false}});
  std::vector<std::vector<Value>> rows;
  for (int64_t p = 0; p < 10; ++p) {
    rows.push_back({Value(int64_t{0}), Value(int64_t{10})});
    rows.push_back({Value(int64_t{10}), Value(int64_t{0})});
    const bool qualifies = p == 2 || p == 7;
    rows.push_back({Value(qualifies ? int64_t{8} : int64_t{1}),
                    Value(qualifies ? int64_t{8} : int64_t{1})});
  }
  return MakeTable("corr", schema, rows, 3);
}

ExprPtr CorrelatedPredicate() {
  return And({Gt(Col("a"), Lit(int64_t{5})), Gt(Col("b"), Lit(int64_t{5}))});
}

std::string RowsText(const std::vector<Row>& rows) {
  std::string s;
  for (const Row& row : rows) {
    for (const Value& v : row) s += v.ToString() + ",";
    s += "\n";
  }
  return s;
}

TEST(PlanTest, FingerprintSeparatesLiteralsThatRenderAlike) {
  // Six significant digits render both floats as 0.123456.
  ExprPtr near_a = Gt(Col("val"), Lit(0.1234561));
  ExprPtr near_b = Gt(Col("val"), Lit(0.1234564));
  ASSERT_EQ(near_a->ToString(), near_b->ToString());
  EXPECT_NE(ScanPlan("t", near_a)->Fingerprint(),
            ScanPlan("t", near_b)->Fingerprint());
  // An unescaped quote inside a string literal renders like two terms.
  ExprPtr two_terms =
      Or({Eq(Col("cat"), Lit("a")), Eq(Col("cat"), Lit("b"))});
  ExprPtr one_term = Or({Eq(Col("cat"), Lit("a') OR (cat = 'b"))});
  ASSERT_EQ(two_terms->ToString(), one_term->ToString());
  EXPECT_NE(ScanPlan("t", two_terms)->Fingerprint(),
            ScanPlan("t", one_term)->Fingerprint());
  EXPECT_EQ(ScanPlan("t", Eq(Col("cat"), Lit("c1")))->Fingerprint(),
            ScanPlan("t", Eq(Col("cat"), Lit("c1")))->Fingerprint());
}

TEST_F(ExecTest, ScanEntryRestrictsRepeatsAndCreditsCache) {
  ASSERT_TRUE(catalog_.RegisterTable(CorrelatedTable()).ok());
  for (int threads : {1, 4}) {
    PredicateCache cache;
    config_.predicate_cache = &cache;
    config_.exec.num_threads = threads;
    auto plan = ScanPlan("corr", CorrelatedPredicate());
    QueryResult first = Run(plan);
    EXPECT_FALSE(first.predicate_cache_hit);
    EXPECT_EQ(first.stats.scanned_partitions, 10);
    EXPECT_EQ(first.stats.pruned_by_cache, 0);
    QueryResult second = Run(plan);
    EXPECT_TRUE(second.predicate_cache_hit);
    EXPECT_EQ(second.stats.pruned_by_cache, 8);
    EXPECT_EQ(second.stats.scanned_partitions, 2);
    EXPECT_EQ(second.stats.scanned_partitions + second.stats.TotalPruned(),
              second.stats.total_partitions);
    EXPECT_EQ(RowsText(second.rows), RowsText(first.rows));
    ASSERT_EQ(second.rows.size(), 2u);
    // The same scan under a LIMIT or an aggregate hits the scan entry too.
    QueryResult limited =
        Run(LimitPlan(ScanPlan("corr", CorrelatedPredicate()), 5));
    EXPECT_TRUE(limited.predicate_cache_hit);
    EXPECT_EQ(RowsText(limited.rows), RowsText(first.rows));
    QueryResult counted = Run(AggregatePlan(
        ScanPlan("corr", CorrelatedPredicate()), {},
        {AggPlanSpec{AggFunc::kCount, "", "n"}}));
    EXPECT_TRUE(counted.predicate_cache_hit);
    ASSERT_EQ(counted.rows.size(), 1u);
    EXPECT_EQ(counted.rows[0][0].int64_value(), 2);
  }
}

TEST_F(ExecTest, EarlyStoppedScanPublishesOnlyAKSufficientEntry) {
  ASSERT_TRUE(catalog_.RegisterTable(CorrelatedTable()).ok());
  for (int threads : {1, 4}) {
    PredicateCache cache;
    config_.predicate_cache = &cache;
    config_.exec.num_threads = threads;
    auto limit = [](int64_t k) {
      return LimitPlan(ScanPlan("corr", CorrelatedPredicate()), k);
    };
    // LIMIT 1 stops the scan at partition 2: partition 7's row was never
    // seen, so the run may only claim that partition 2 holds one row.
    QueryResult limited = Run(limit(1));
    ASSERT_EQ(limited.rows.size(), 1u);
    EXPECT_FALSE(limited.predicate_cache_hit);
    EXPECT_EQ(cache.size(), 1u);
    // A repeat reads partition 2 alone; the other nine are the cache's.
    QueryResult repeat = Run(limit(1));
    EXPECT_TRUE(repeat.predicate_cache_limit_hit);
    EXPECT_EQ(repeat.stats.pruned_by_cache, 9);
    EXPECT_EQ(repeat.stats.scanned_partitions, 1);
    EXPECT_EQ(RowsText(repeat.rows), RowsText(limited.rows));
    // The compile span and the EXPLAIN ANALYZE scan line name the entry.
    Trace trace;
    ExecuteOptions opts;
    opts.trace = &trace;
    auto traced = Engine(&catalog_, config_).Execute(limit(1), opts);
    ASSERT_TRUE(traced.ok());
    EXPECT_NE(traced.value().profile->ToText().find(
                  "Scan corr [cache limit(rows=1)]"),
              std::string::npos);
    bool annotated = false;
    for (const TraceSpan& span : trace.spans()) {
      for (const TraceAnnotation& a : span.annotations) {
        annotated |= span.name == "compile" && a.key == "cache_entry" &&
                     a.str_value == "limit(rows=1)";
      }
    }
    EXPECT_TRUE(annotated);
    // Two rows are more than the entry holds: a miss, as for a full scan.
    QueryResult two = Run(limit(2));
    EXPECT_FALSE(two.predicate_cache_hit);
    EXPECT_EQ(two.rows.size(), 2u);
    QueryResult full = Run(ScanPlan("corr", CorrelatedPredicate()));
    EXPECT_FALSE(full.predicate_cache_hit);
    EXPECT_EQ(full.rows.size(), 2u);
    EXPECT_EQ(cache.size(), 1u);
    // The full scan's entry replaced the k-sufficient one, and the next
    // LIMIT is served by it without downgrading it.
    QueryResult after = Run(limit(1));
    EXPECT_TRUE(after.predicate_cache_hit);
    EXPECT_FALSE(after.predicate_cache_limit_hit);
    EXPECT_TRUE(
        Run(ScanPlan("corr", CorrelatedPredicate())).predicate_cache_hit);
  }
}

// ------------------------------------ Nested row-dropping operators ----

constexpr workload::Layout kLayouts[] = {workload::Layout::kSorted,
                                         workload::Layout::kClustered,
                                         workload::Layout::kRandom};

/// A synthetic table "t" of `partitions` × 50 rows (seed 7, no NULLs).
std::shared_ptr<Table> Synthetic50(workload::Layout layout,
                                   size_t partitions) {
  workload::TableGenConfig cfg;
  cfg.name = "t";
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = 50;
  cfg.layout = layout;
  cfg.seed = 7;
  return workload::SyntheticTable(cfg);
}

/// Runs `plan` serially over a 16×50 "t" with every pruning technique on
/// or off.
QueryResult RunOn16x50(workload::Layout layout, const PlanPtr& plan,
                       bool pruning) {
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterTable(Synthetic50(layout, 16)).ok());
  EngineConfig config;
  config.enable_filter_pruning = pruning;
  config.enable_limit_pruning = pruning;
  config.enable_topk_pruning = pruning;
  config.enable_join_pruning = pruning;
  config.exec.num_threads = 1;
  Engine engine(&catalog, config);
  auto result = engine.Execute(plan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : QueryResult();
}

/// The rows' `key` values, largest first.
std::vector<int64_t> KeysDescending(const QueryResult& r) {
  std::vector<int64_t> keys;
  const auto col = r.schema.FindColumn("key");
  if (!col.has_value()) return keys;
  for (const Row& row : r.rows) keys.push_back(row[*col].int64_value());
  std::sort(keys.rbegin(), keys.rend());
  return keys;
}

/// A TopK over a LIMIT ranks exactly the rows the LIMIT delivers. LIMIT
/// pruning cuts the scan to partitions holding enough of them; a top-k
/// pruner attached to that scan from above the LIMIT would skip those
/// partitions under its initialized boundary and leave nothing to rank.
TEST(NestedShapeTest, TopKOverLimitRanksTheLimitRows) {
  for (workload::Layout layout : kLayouts) {
    const QueryResult limited =
        RunOn16x50(layout, LimitPlan(ScanPlan("t"), 10), true);
    ASSERT_EQ(limited.rows.size(), 10u) << ToString(layout);
    std::vector<int64_t> expected = KeysDescending(limited);
    expected.resize(3);

    auto plan = TopKPlan(LimitPlan(ScanPlan("t"), 10), "key",
                         /*descending=*/true, 3);
    EXPECT_EQ(KeysDescending(RunOn16x50(layout, plan, true)), expected)
        << ToString(layout);
    EXPECT_EQ(RunOn16x50(layout, plan, false).rows.size(), 3u)
        << ToString(layout);
  }
}

/// A TopK over a TopK in the other direction keeps the inner TopK's worst
/// rows, which the outer boundary must not prune from under it.
TEST(NestedShapeTest, TopKOverTopKMatchesUnprunedKeys) {
  for (workload::Layout layout : kLayouts) {
    for (int64_t k1 : {5, 20, 60, 200}) {
      for (int64_t k2 : {3, 10}) {
        for (bool inner_desc : {true, false}) {
          auto plan = TopKPlan(TopKPlan(ScanPlan("t"), "key", inner_desc, k1),
                               "key", !inner_desc, k2);
          EXPECT_EQ(KeysDescending(RunOn16x50(layout, plan, true)),
                    KeysDescending(RunOn16x50(layout, plan, false)))
              << ToString(layout) << " k1=" << k1 << " k2=" << k2
              << (inner_desc ? " inner desc" : " inner asc");
        }
      }
    }
  }
}

/// A join's probe-side summary pruning must not reach through a TopK
/// either: the TopK would rank only the partitions that can match the
/// build side (here the second-to-last partition's rows), not the whole
/// table, and return rows from below its true top 60.
TEST(NestedShapeTest, JoinOverTopKProbeMatchesUnprunedRows) {
  for (workload::Layout layout : kLayouts) {
    auto plan = JoinPlan(
        TopKPlan(ScanPlan("t"), "key", /*descending=*/true, 60),
        ScanPlan("t", Between(Col("id"), Value(int64_t{700}),
                              Value(int64_t{749}))),
        "key", "key");
    EXPECT_EQ(KeysDescending(RunOn16x50(layout, plan, true)),
              KeysDescending(RunOn16x50(layout, plan, false)))
        << ToString(layout);
  }
}

// ------------------------------------------------ Plans must be trees ----

/// Compiles over an 8×50 clustered "t" (400 rows), serially by default;
/// `num_threads` 0 is the default EngineConfig's hardware concurrency.
Result<QueryResult> RunOn8x50(const PlanPtr& plan, int num_threads = 1) {
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .RegisterTable(
                      Synthetic50(workload::Layout::kClustered, /*parts=*/8))
                  .ok());
  EngineConfig config;
  config.exec.num_threads = num_threads;
  Engine engine(&catalog, config);
  return engine.Execute(plan);
}

/// One scan node on both sides of a join. Compiled twice, the build copy
/// would take over the probe copy's bookkeeping: a probe-side load fault
/// would go unchecked and the query return a truncated OK.
TEST(PlanTreeTest, ScanSharedByBothJoinSidesIsRefused) {
  auto s = ScanPlan("t");
  FailPoint* fp =
      FailPointRegistry::Instance().Register("scan.partition_load");
  fp->ArmOnceAfterK(9);  // the build side's 8 loads, then one probe load
  auto result = RunOn8x50(JoinPlan(s, s, "key", "key"));
  fp->Disarm();
  ASSERT_FALSE(result.ok()) << result.value().rows.size() << " rows";
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// One scan node under a TopK on the probe side and bare on the build
/// side: the build copy would pick up the TopK's pruner.
TEST(PlanTreeTest, ScanSharedUnderTopKAndJoinIsRefused) {
  auto s = ScanPlan("t");
  auto result = RunOn8x50(
      JoinPlan(TopKPlan(s, "key", /*descending=*/true, 3), s, "cat", "cat"));
  ASSERT_FALSE(result.ok()) << result.value().rows.size() << " rows";
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// A node that is its own child is refused instead of recursing forever.
TEST(PlanTreeTest, CyclicPlanIsRefused) {
  auto limit = LimitPlan(ScanPlan("t"), 5);
  limit->child = limit;
  auto result = RunOn8x50(limit);
  limit->child = nullptr;  // break the ownership cycle
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

/// A plan node missing an input is refused with a Status before compile
/// dereferences it.
void ExpectMissingInputRefused(const PlanPtr& plan) {
  auto result = RunOn8x50(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanTreeTest, ProjectWithoutChildIsRefused) {
  ExpectMissingInputRefused(ProjectPlan(nullptr, {Col("key")}, {"key"}));
}

TEST(PlanTreeTest, LimitWithoutChildIsRefused) {
  ExpectMissingInputRefused(LimitPlan(nullptr, 5));
}

TEST(PlanTreeTest, TopKWithoutChildIsRefused) {
  ExpectMissingInputRefused(TopKPlan(nullptr, "key", /*descending=*/true, 3));
}

TEST(PlanTreeTest, AggregateWithoutChildIsRefused) {
  ExpectMissingInputRefused(AggregatePlan(
      nullptr, {"cat"}, {AggPlanSpec{AggFunc::kCount, "", "n"}}));
}

TEST(PlanTreeTest, SortWithoutChildIsRefused) {
  ExpectMissingInputRefused(SortPlan(nullptr, "key", /*descending=*/false));
}

TEST(PlanTreeTest, JoinWithoutEitherInputIsRefused) {
  ExpectMissingInputRefused(JoinPlan(nullptr, ScanPlan("t"), "key", "key"));
  ExpectMissingInputRefused(JoinPlan(ScanPlan("t"), nullptr, "key", "key"));
  // Under another node, too: the walk reaches the join through its parent.
  ExpectMissingInputRefused(
      LimitPlan(JoinPlan(ScanPlan("t"), nullptr, "key", "key"), 5));
}

/// The inputs a TopK on `key` can sit over: a scan, a predicated scan
/// (partitions 2-7 fully match `id >= 100`, so boundary initialization has
/// partitions to read), and a GROUP BY key.
std::vector<PlanPtr> TopKInputs() {
  return {ScanPlan("t"), ScanPlan("t", Ge(Col("id"), Lit(100))),
          AggregatePlan(ScanPlan("t"), {"key"},
                        {AggPlanSpec{AggFunc::kCount, "", "n"}})};
}

/// ORDER BY ... LIMIT 0 keeps no row: no boundary initialization reads the
/// (k-1)-th extreme and no aggregate publishes a k-th group boundary.
TEST(PlanTreeTest, TopKOfZeroReturnsNoRows) {
  for (int threads : {1, 0}) {
    for (bool desc : {true, false}) {
      for (const PlanPtr& input : TopKInputs()) {
        auto result = RunOn8x50(TopKPlan(input, "key", desc, 0), threads);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_TRUE(result.value().rows.empty())
            << result.value().rows.size() << " rows at threads=" << threads;
      }
    }
  }
}

/// ORDER BY ... LIMIT 0 loads nothing, as LIMIT 0 does: the TopK's traced
/// scan is emptied at compile time and its partitions counted as top-k
/// pruned, serially, at 4 threads and across 2 shards, with a profile that
/// reconciles with the query's stats.
TEST(PlanTreeTest, TopKOfZeroLoadsNothing) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterTable(workload::SyntheticTable([] {
                    workload::TableGenConfig cfg;
                    cfg.name = "t";
                    cfg.num_partitions = 64;
                    cfg.rows_per_partition = 500;
                    cfg.layout = workload::Layout::kClustered;
                    cfg.seed = 7;
                    return cfg;
                  }()))
                  .ok());
  for (bool desc : {true, false}) {
    for (const PlanPtr& input : TopKInputs()) {
      const PlanPtr plan = TopKPlan(input, "key", desc, 0);
      std::vector<QueryResult> results;
      for (int threads : {1, 4}) {
        EngineConfig config;
        config.exec.num_threads = threads;
        Engine engine(&catalog, config);
        Trace trace;
        ExecuteOptions opts;
        opts.trace = &trace;
        auto result = engine.Execute(plan, opts);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        results.push_back(std::move(result).value());
      }
      shard::ShardExecConfig shard_config;
      shard_config.num_shards = 2;
      shard_config.engine.exec.num_threads = 1;
      shard::ShardCoordinator coordinator(&catalog, shard_config);
      Trace trace;
      ExecuteOptions opts;
      opts.trace = &trace;
      auto sharded = coordinator.Execute(plan, opts);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      results.push_back(std::move(sharded).value());

      for (const QueryResult& r : results) {
        const std::string at = plan->Fingerprint();
        EXPECT_TRUE(r.rows.empty()) << at;
        EXPECT_EQ(r.stats.scanned_partitions, 0) << at;
        EXPECT_EQ(r.stats.total_partitions, 64) << at;
        EXPECT_EQ(r.stats.TotalPruned(), r.stats.total_partitions) << at;
        EXPECT_GT(r.stats.pruned_by_topk, 0) << at;
        EXPECT_EQ(testing_util::DiffStats(r.stats, results[0].stats), "")
            << at;
        ASSERT_NE(r.profile, nullptr) << at;
        EXPECT_EQ(testing_util::DiffStats(r.profile->SumPruning(), r.stats),
                  "")
            << at;
      }
    }
  }
}

TEST(PlanTreeTest, NegativeLimitCountOrOffsetIsRefused) {
  for (int threads : {1, 0}) {
    for (const PlanPtr& input : TopKInputs()) {
      auto topk = RunOn8x50(TopKPlan(input, "key", true, -1), threads);
      ASSERT_FALSE(topk.ok());
      EXPECT_EQ(topk.status().code(), StatusCode::kInvalidArgument);
    }
    for (const PlanPtr& limit :
         {LimitPlan(ScanPlan("t"), -1), LimitPlan(ScanPlan("t"), 5, -1)}) {
      auto result = RunOn8x50(limit, threads);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

/// `key >= 0` under NOTs, `depth` nodes deep; an even number of NOTs (an
/// even depth) leaves the predicate unchanged.
ExprPtr NestedNots(size_t depth) {
  ExprPtr e = Ge(Col("key"), Lit(0));
  for (size_t d = 2; d < depth; ++d) e = Not(e);
  return e;
}

void ExpectTooDeepRefused(const PlanPtr& plan) {
  auto result = RunOn8x50(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanTreeTest, ScanPredicateDepthIsBounded) {
  static_assert(Engine::kMaxExprDepth % 2 == 0);
  auto plain = RunOn8x50(ScanPlan("t", NestedNots(2)));
  auto deepest = RunOn8x50(ScanPlan("t", NestedNots(Engine::kMaxExprDepth)));
  ASSERT_TRUE(plain.ok() && deepest.ok()) << deepest.status().ToString();
  EXPECT_FALSE(plain.value().rows.empty());
  EXPECT_EQ(testing_util::Serialize(deepest.value()),
            testing_util::Serialize(plain.value()));
  ExpectTooDeepRefused(
      ScanPlan("t", NestedNots(Engine::kMaxExprDepth + 1)));
}

TEST(PlanTreeTest, ProjectExpressionDepthIsBounded) {
  auto project = [](size_t depth) {
    return ProjectPlan(ScanPlan("t"), {Col("id"), NestedNots(depth)},
                       {"id", "p"});
  };
  auto plain = RunOn8x50(project(2));
  auto deepest = RunOn8x50(project(Engine::kMaxExprDepth));
  ASSERT_TRUE(plain.ok() && deepest.ok()) << deepest.status().ToString();
  EXPECT_EQ(deepest.value().rows.size(), 400u);
  EXPECT_EQ(testing_util::Serialize(deepest.value()),
            testing_util::Serialize(plain.value()));
  ExpectTooDeepRefused(project(Engine::kMaxExprDepth + 1));
}

}  // namespace
}  // namespace snowprune
