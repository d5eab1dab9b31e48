#include <gtest/gtest.h>

#include <limits>

#include "common/metrics.h"
#include "exec/column_batch.h"
#include "exec/engine.h"
#include "exec/row_eval.h"
#include "exec/scan_op.h"
#include "expr/builder.h"
#include "expr/evaluator.h"
#include "expr/jit/bytecode.h"
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

TEST_F(ExecTest, RowLevelBloomSkipsHashProbes) {
  config_.join_row_level_bloom = true;
  config_.enable_join_pruning = false;  // isolate the row-level effect
  auto plan = JoinPlan(ScanPlan("fact"), ScanPlan("dim"), "key", "dkey");
  QueryResult r = Run(plan);
  EXPECT_FALSE(r.rows.empty());
  // Correctness: same rows as without bloom.
  config_.join_row_level_bloom = false;
  QueryResult base = Run(plan);
  EXPECT_EQ(base.rows.size(), r.rows.size());
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
      EXPECT_EQ(EvalRow(*e, row), EvalScalar(*e, part, i)) << e->ToString();
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
  PruningStats stats;
  TableScanOp scan(fact_, fact_->FullScanSet(), pred, &stats);
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
  EXPECT_EQ(stats.scanned_partitions,
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

/// NaN join keys: Value::Compare reports 0 for NaN against anything
/// (neither < nor >), so the boxed path joins them; the columnar cell
/// equality must make the identical decision rather than IEEE's
/// NaN != NaN. Forced-boxed (via identity projection) and columnar
/// pipelines must agree row-for-row.
TEST_F(ExecTest, NanJoinKeysMatchBetweenColumnarAndBoxed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({Field{"k", DataType::kFloat64, true},
                 Field{"tag", DataType::kString, false}});
  auto make = [&](const char* name, const char* prefix) {
    std::vector<std::vector<Value>> rows;
    rows.push_back({Value(nan), Value(std::string(prefix) + "_nan")});
    rows.push_back({Value(1.5), Value(std::string(prefix) + "_a")});
    rows.push_back({Value(2.5), Value(std::string(prefix) + "_b")});
    return MakeTable(name, schema, rows, 2);
  };
  ASSERT_TRUE(catalog_.RegisterTable(make("njp", "p")).ok());
  ASSERT_TRUE(catalog_.RegisterTable(make("njb", "b")).ok());

  auto columnar = JoinPlan(ScanPlan("njp"), ScanPlan("njb"), "k", "k");
  auto boxed = JoinPlan(
      ProjectPlan(ScanPlan("njp"), {Col("k"), Col("tag")}, {"k", "tag"}),
      ProjectPlan(ScanPlan("njb"), {Col("k"), Col("tag")}, {"k", "tag"}),
      "k", "k");
  QueryResult rc = Run(columnar);
  QueryResult rb = Run(boxed);
  EXPECT_EQ(testing_util::Serialize(rc), testing_util::Serialize(rb));
  EXPECT_FALSE(rc.rows.empty());
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

TEST_F(ExecTest, RuntimeFilterPruningMatchesCompileTime) {
  auto plan = ScanPlan("fact", Between(Col("key"), Value(int64_t{5000}),
                                       Value(int64_t{9000})));
  QueryResult compile_time = Run(plan);
  config_.filter_pruning_phase = FilterPruningPhase::kRuntime;
  QueryResult runtime = Run(plan);
  // Same rows, same partitions pruned — just at a different phase.
  EXPECT_EQ(runtime.rows.size(), compile_time.rows.size());
  EXPECT_EQ(runtime.stats.pruned_by_filter,
            compile_time.stats.pruned_by_filter);
  EXPECT_EQ(runtime.stats.scanned_partitions,
            compile_time.stats.scanned_partitions);
  // The trade-off (§2.1): the runtime phase ships the unpruned scan set.
  EXPECT_GT(runtime.scan_set_bytes, compile_time.scan_set_bytes);
  // And it cannot feed LIMIT pruning (no fully-matching set at compile time).
  auto limit_plan = LimitPlan(
      ScanPlan("fact", Between(Col("key"), Value(int64_t{20000}),
                               Value(int64_t{40000}))),
      10);
  QueryResult limit_runtime = Run(limit_plan);
  EXPECT_EQ(limit_runtime.limit_class, LimitClassification::kNoFullyMatching);
  EXPECT_EQ(limit_runtime.rows.size(), 10u);
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

TEST_F(ExecTest, EarlyStoppedScanPublishesNoScanEntry) {
  ASSERT_TRUE(catalog_.RegisterTable(CorrelatedTable()).ok());
  PredicateCache cache;
  config_.predicate_cache = &cache;
  config_.exec.num_threads = 1;
  // LIMIT 1 stops the scan at partition 2: partition 7's row was never
  // seen, so an entry from this run would lose it.
  QueryResult limited =
      Run(LimitPlan(ScanPlan("corr", CorrelatedPredicate()), 1));
  ASSERT_EQ(limited.rows.size(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  QueryResult full = Run(ScanPlan("corr", CorrelatedPredicate()));
  EXPECT_FALSE(full.predicate_cache_hit);
  EXPECT_EQ(full.rows.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ExecTest, ScanEntryHitsPromoteTheFilter) {
  ASSERT_TRUE(catalog_.RegisterTable(CorrelatedTable()).ok());
  PredicateCache cache;
  config_.predicate_cache = &cache;
  config_.exec.num_threads = 1;
  config_.exec.specialize_after = 2;
  auto plan = ScanPlan("corr", CorrelatedPredicate());
  const int64_t compiles_before = jit::Counters().compiles->Value();
  const int64_t hits_before = jit::Counters().hits->Value();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(Run(plan).rows.size(), 2u);
  // Populate, hit 1, hit 2 (promotes), hit 3 (reuses the program).
  EXPECT_EQ(jit::Counters().compiles->Value() - compiles_before, 1);
  EXPECT_GT(jit::Counters().hits->Value(), hits_before);
}

}  // namespace
}  // namespace snowprune
