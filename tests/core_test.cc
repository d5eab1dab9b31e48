#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/filter_pruner.h"
#include "core/join_pruner.h"
#include "core/limit_pruner.h"
#include "core/predicate_cache.h"
#include "core/pruning_tree.h"
#include "core/topk_pruner.h"
#include "expr/builder.h"
#include "expr/jit/bytecode.h"
#include "expr/jit/compiler.h"
#include "test_util.h"

namespace snowprune {
namespace {

using testing_util::IntTable;
using testing_util::MakeTable;
using testing_util::MatchCountsPerPartition;

// --------------------------------------------------------- PruningTree ----

TEST(PruningTreeTest, EvaluatesConnectives) {
  Schema schema({Field{"x", DataType::kInt64, true}});
  auto expr = And({Ge(Col("x"), Lit(0)), Le(Col("x"), Lit(10))});
  ASSERT_TRUE(BindExpr(expr, schema).ok());
  PruningTree tree(expr, PruningTreeConfig{});
  std::vector<ColumnStats> in_range(1);
  in_range[0] = {true, Value(int64_t{2}), Value(int64_t{8}), 0, 5};
  EXPECT_TRUE(tree.Evaluate(in_range).fully_matching());
  std::vector<ColumnStats> outside(1);
  outside[0] = {true, Value(int64_t{50}), Value(int64_t{99}), 0, 5};
  EXPECT_TRUE(tree.Evaluate(outside).prunable());
  EXPECT_EQ(tree.num_leaves(), 2u);
}

TEST(PruningTreeTest, ReorderPutsDecisiveLeafFirst) {
  Schema schema({Field{"x", DataType::kInt64, true},
                 Field{"y", DataType::kInt64, true}});
  // First leaf never prunes; second always does.
  auto weak = Ge(Col("x"), Lit(int64_t{-1000000}));
  auto strong = Gt(Col("y"), Lit(int64_t{1000000}));
  auto expr = And({weak, strong});
  ASSERT_TRUE(BindExpr(expr, schema).ok());
  PruningTreeConfig cfg;
  cfg.enable_reorder = true;
  cfg.reorder_interval = 8;
  PruningTree tree(expr, cfg);
  std::vector<ColumnStats> stats(2);
  stats[0] = {true, Value(int64_t{0}), Value(int64_t{100}), 0, 5};
  stats[1] = {true, Value(int64_t{0}), Value(int64_t{100}), 0, 5};
  auto before = tree.LeafOrder();
  EXPECT_EQ(before[0], weak->ToString());
  for (int i = 0; i < 64; ++i) (void)tree.Evaluate(stats);
  auto after = tree.LeafOrder();
  EXPECT_EQ(after[0], strong->ToString());  // decisive leaf promoted
}

TEST(PruningTreeTest, CutoffDisablesIneffectiveLeafUnderAnd) {
  Schema schema({Field{"x", DataType::kInt64, true}});
  auto useless = Ge(Col("x"), Lit(int64_t{-1000000}));  // never prunes
  auto expr = And({useless});
  ASSERT_TRUE(BindExpr(expr, schema).ok());
  PruningTreeConfig cfg;
  cfg.enable_cutoff = true;
  cfg.cutoff_min_observations = 4;
  cfg.reorder_interval = 4;
  cfg.partition_scan_cost_ns = 0.0;  // pruning can never pay off
  PruningTree tree(expr, cfg);
  std::vector<ColumnStats> stats(1);
  stats[0] = {true, Value(int64_t{0}), Value(int64_t{100}), 0, 5};
  for (int i = 0; i < 16; ++i) (void)tree.Evaluate(stats);
  EXPECT_EQ(tree.disabled_leaves(), 1u);
  // Disabled tree keeps everything (conservative).
  EXPECT_FALSE(tree.Evaluate(stats).prunable());
  EXPECT_FALSE(tree.Evaluate(stats).fully_matching());
}

TEST(PruningTreeTest, CutoffNeverFiresUnderOr) {
  Schema schema({Field{"x", DataType::kInt64, true}});
  auto expr = Or({Ge(Col("x"), Lit(int64_t{-1000000})),
                  Gt(Col("x"), Lit(int64_t{1000000}))});
  ASSERT_TRUE(BindExpr(expr, schema).ok());
  PruningTreeConfig cfg;
  cfg.enable_cutoff = true;
  cfg.cutoff_min_observations = 2;
  cfg.reorder_interval = 2;
  cfg.partition_scan_cost_ns = 0.0;
  PruningTree tree(expr, cfg);
  std::vector<ColumnStats> stats(1);
  stats[0] = {true, Value(int64_t{0}), Value(int64_t{100}), 0, 5};
  for (int i = 0; i < 32; ++i) (void)tree.Evaluate(stats);
  // §3.2: only leaves below an AND may be removed.
  EXPECT_EQ(tree.disabled_leaves(), 0u);
}

// -------------------------------------------------------- FilterPruner ----

Schema TrackingSchema() {
  return Schema({Field{"species", DataType::kString, true},
                 Field{"s", DataType::kInt64, true}});
}

/// The paper's Figure 5 table: four partitions of tracking data.
std::shared_ptr<Table> Figure5Table() {
  return MakeTable(
      "tracking_data", TrackingSchema(),
      {
          // Partition 1: not matching (species range B..S misses Alpine).
          {Value("Snow Vole"), Value(int64_t{7})},
          {Value("Brown Bear"), Value(int64_t{133})},
          {Value("Gray Wolf"), Value(int64_t{82})},
          // Partition 2: partially matching.
          {Value("Lynx"), Value(int64_t{71})},
          {Value("Red Fox"), Value(int64_t{40})},
          {Value("Alpine Bat"), Value(int64_t{6})},
          // Partition 3: fully matching.
          {Value("Alpine Ibex"), Value(int64_t{101})},
          {Value("Alpine Goat"), Value(int64_t{76})},
          {Value("Alpine Sheep"), Value(int64_t{83})},
          // Partition 4: partially matching.
          {Value("Europ. Mole"), Value(int64_t{4})},
          {Value("Polecat"), Value(int64_t{16})},
          {Value("Alpine Ibex"), Value(int64_t{97})},
      },
      3);
}

ExprPtr Figure5Predicate() {
  return And({Like(Col("species"), "Alpine%"), Ge(Col("s"), Lit(50))});
}

class FilterPrunerModeTest : public ::testing::TestWithParam<FullyMatchingMode> {};

TEST_P(FilterPrunerModeTest, PaperFigure5Example) {
  auto table = Figure5Table();
  auto pred = Figure5Predicate();
  ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
  FilterPrunerConfig cfg;
  cfg.fully_matching_mode = GetParam();
  FilterPruner pruner(pred, cfg);
  FilterPruneResult result = pruner.Prune(*table, table->FullScanSet());
  // Partition 1 pruned; 2, 3, 4 kept; 3 fully matching.
  EXPECT_EQ(result.pruned, 1);
  ASSERT_EQ(result.scan_set.size(), 3u);
  EXPECT_EQ(result.scan_set[0], 1u);
  ASSERT_EQ(result.fully_matching.size(), 1u);
  EXPECT_EQ(result.fully_matching[0], 2u);
  EXPECT_EQ(result.fully_matching_rows, 3);
}

INSTANTIATE_TEST_SUITE_P(Modes, FilterPrunerModeTest,
                         ::testing::Values(FullyMatchingMode::kInvertedTwoPass,
                                           FullyMatchingMode::kDirectAnalysis));

TEST(FilterPrunerTest, NullPredicateKeepsEverythingFullyMatching) {
  auto table = IntTable("t", "x", {{1, 2}, {3, 4}});
  FilterPruner pruner(nullptr);
  auto result = pruner.Prune(*table, table->FullScanSet());
  EXPECT_EQ(result.pruned, 0);
  EXPECT_EQ(result.fully_matching.size(), 2u);
  EXPECT_EQ(result.fully_matching_rows, 4);
}

TEST(FilterPrunerTest, EmptyPartitionIsPruned) {
  auto table = IntTable("t", "x", {{1, 2}, {}});
  auto pred = Ge(Col("x"), Lit(0));
  ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
  FilterPruner pruner(pred);
  auto result = pruner.Prune(*table, table->FullScanSet());
  EXPECT_EQ(result.pruned, 1);
  EXPECT_EQ(result.scan_set.size(), 1u);
}

TEST(FilterPrunerTest, MissingMetadataIsNeverPruned) {
  auto table = IntTable("t", "x", {{100, 200}, {300, 400}});
  table->DropStatsOnFraction(1.0, 1);
  auto pred = Lt(Col("x"), Lit(0));  // matches nothing
  ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
  FilterPruner pruner(pred);
  auto result = pruner.Prune(*table, table->FullScanSet());
  EXPECT_EQ(result.pruned, 0);  // no metadata, no pruning (§8.1)
  // After backfill, pruning works again.
  table->BackfillMissingStats();
  FilterPruner pruner2(pred);
  EXPECT_EQ(pruner2.Prune(*table, table->FullScanSet()).pruned, 2);
}

class FilterPrunerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterPrunerPropertyTest, NoFalseNegativesOnRandomData) {
  Rng rng(GetParam() * 31 + 7);
  Schema schema({Field{"x", DataType::kInt64, true}});
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<Value>> rows;
    int n = static_cast<int>(rng.UniformInt(4, 60));
    for (int i = 0; i < n; ++i) {
      rows.push_back({rng.Bernoulli(0.1) ? Value::Null()
                                         : Value(rng.UniformInt(0, 100))});
    }
    auto table = MakeTable("t", schema, rows, 5);
    int64_t lo = rng.UniformInt(0, 80), hi = lo + rng.UniformInt(0, 40);
    auto pred = Between(Col("x"), Value(lo), Value(hi));
    ASSERT_TRUE(BindExpr(pred, schema).ok());
    FilterPruner pruner(pred);
    auto result = pruner.Prune(*table, table->FullScanSet());
    auto oracle = MatchCountsPerPartition(*table, pred);
    // Every partition with matches must be in the scan set.
    std::vector<bool> kept(table->num_partitions(), false);
    for (PartitionId pid : result.scan_set) kept[pid] = true;
    for (size_t pid = 0; pid < oracle.size(); ++pid) {
      if (oracle[pid] > 0) EXPECT_TRUE(kept[pid]) << "partition " << pid;
    }
    // Fully-matching partitions must match on every row.
    for (PartitionId pid : result.fully_matching) {
      EXPECT_EQ(oracle[pid], table->partition_metadata(pid).row_count());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterPrunerPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

// --------------------------------------------------------- LimitPruner ----

FilterPruneResult RunFilter(const std::shared_ptr<Table>& table, ExprPtr pred) {
  if (pred) {
    Status s = BindExpr(pred, table->schema());
    EXPECT_TRUE(s.ok());
  }
  FilterPruner pruner(std::move(pred));
  return pruner.Prune(*table, table->FullScanSet());
}

TEST(LimitPrunerTest, PaperSection41Example) {
  auto table = Figure5Table();
  auto filtered = RunFilter(table, Figure5Predicate());
  // LIMIT 3 is covered by fully-matching partition 3 alone.
  auto result = LimitPruner::Prune(*table, filtered, 3);
  EXPECT_EQ(result.outcome, LimitPruneOutcome::kPrunedToOne);
  ASSERT_EQ(result.scan_set.size(), 1u);
  EXPECT_EQ(result.scan_set[0], 2u);
  EXPECT_EQ(result.pruned, 2);
}

TEST(LimitPrunerTest, LimitZeroEmptiesScanSet) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  auto filtered = RunFilter(table, nullptr);
  auto result = LimitPruner::Prune(*table, filtered, 0);
  EXPECT_EQ(result.outcome, LimitPruneOutcome::kPrunedToZero);
  EXPECT_TRUE(result.scan_set.empty());
}

TEST(LimitPrunerTest, AlreadyMinimal) {
  auto table = IntTable("t", "x", {{1, 2, 3}});
  auto filtered = RunFilter(table, nullptr);
  auto result = LimitPruner::Prune(*table, filtered, 2);
  EXPECT_EQ(result.outcome, LimitPruneOutcome::kAlreadyMinimal);
}

TEST(LimitPrunerTest, InsufficientFullyMatchingReordersScanSet) {
  auto table = Figure5Table();
  auto filtered = RunFilter(table, Figure5Predicate());
  // k = 100 > 3 fully-matching rows: no pruning, but partition 3 first.
  auto result = LimitPruner::Prune(*table, filtered, 100);
  EXPECT_EQ(result.outcome, LimitPruneOutcome::kNoFullyMatching);
  ASSERT_EQ(result.scan_set.size(), 3u);
  EXPECT_EQ(result.scan_set[0], 2u);
}

TEST(LimitPrunerTest, LargeKRequiresMultiplePartitions) {
  auto table = IntTable("t", "x", {{1, 2, 3}, {4, 5}, {6, 7, 8, 9}});
  auto filtered = RunFilter(table, nullptr);  // everything fully matching
  auto result = LimitPruner::Prune(*table, filtered, 6);
  EXPECT_EQ(result.outcome, LimitPruneOutcome::kPrunedToMany);
  // Greedy: biggest partitions first (4 rows + 3 rows >= 6).
  ASSERT_EQ(result.scan_set.size(), 2u);
  EXPECT_EQ(result.scan_set[0], 2u);
  EXPECT_EQ(result.scan_set[1], 0u);
}

// ---------------------------------------------------------- TopKPruner ----

TEST(TopKPrunerTest, FullSortOrdersByMaxDesc) {
  auto table = IntTable("t", "x", {{1, 5}, {90, 99}, {40, 50}});
  TopKPrunerConfig cfg;
  cfg.k = 1;
  cfg.order_strategy = OrderStrategy::kFullSort;
  cfg.boundary_init = BoundaryInitMode::kNone;
  TopKPruner pruner(cfg, 0);
  ScanSet prepared = pruner.Prepare(*table, table->FullScanSet(), {});
  ASSERT_EQ(prepared.size(), 3u);
  EXPECT_EQ(prepared[0], 1u);
  EXPECT_EQ(prepared[1], 2u);
  EXPECT_EQ(prepared[2], 0u);
}

TEST(TopKPrunerTest, RuntimeBoundarySkipsInclusively) {
  auto table = IntTable("t", "x", {{1, 5}, {90, 99}, {40, 50}});
  TopKPrunerConfig cfg;
  cfg.k = 1;
  TopKPruner pruner(cfg, 0);
  (void)pruner.Prepare(*table, table->FullScanSet(), {});
  EXPECT_FALSE(pruner.ShouldSkip(*table, 0));  // no boundary yet
  pruner.UpdateBoundary(Value(int64_t{50}));
  EXPECT_TRUE(pruner.ShouldSkip(*table, 0));   // max 5 < 50
  EXPECT_TRUE(pruner.ShouldSkip(*table, 2));   // max 50 == 50, inclusive
  EXPECT_FALSE(pruner.ShouldSkip(*table, 1));  // max 99 > 50
}

TEST(TopKPrunerTest, AscendingMirrorsLogic) {
  auto table = IntTable("t", "x", {{10, 20}, {1, 3}, {50, 60}});
  TopKPrunerConfig cfg;
  cfg.k = 1;
  cfg.descending = false;
  TopKPruner pruner(cfg, 0);
  ScanSet prepared = pruner.Prepare(*table, table->FullScanSet(), {});
  EXPECT_EQ(prepared[0], 1u);  // smallest min first
  pruner.UpdateBoundary(Value(int64_t{3}));
  EXPECT_TRUE(pruner.ShouldSkip(*table, 0));   // min 10 > 3
  EXPECT_FALSE(pruner.ShouldSkip(*table, 1));  // min 1 < 3
}

TEST(TopKPrunerTest, UpfrontInitFromFullyMatching) {
  // Partitions: [0..9], [10..19], [20..29]; all fully matching; k = 2.
  auto table = IntTable("t", "x",
                        {{0, 5, 9}, {10, 15, 19}, {20, 25, 29}});
  TopKPrunerConfig cfg;
  cfg.k = 2;
  cfg.boundary_init = BoundaryInitMode::kStricter;
  cfg.order_strategy = OrderStrategy::kNone;
  TopKPruner pruner(cfg, 0);
  (void)pruner.Prepare(*table, table->FullScanSet(), {0, 1, 2});
  // Cumulative-min: partition 2 alone has 3 >= 2 rows, all >= 20.
  ASSERT_TRUE(pruner.boundary().has_value());
  EXPECT_EQ(pruner.boundary()->int64_value(), 20);
  EXPECT_FALSE(pruner.boundary_inclusive());  // init boundary: strict skip
  EXPECT_TRUE(pruner.ShouldSkip(*table, 0));  // max 9 < 20
  EXPECT_TRUE(pruner.ShouldSkip(*table, 1));  // max 19 < 20
  EXPECT_FALSE(pruner.ShouldSkip(*table, 2)); // its own partition survives
}

TEST(TopKPrunerTest, KthMaxInitWhenPartitionsOverlap) {
  // Heavily overlapping: cumulative-min gives a weak bound, k-th max wins.
  auto table = IntTable("t", "x", {{0, 100}, {0, 90}, {0, 80}});
  TopKPrunerConfig cfg;
  cfg.k = 2;
  cfg.boundary_init = BoundaryInitMode::kKthMax;
  TopKPruner pruner(cfg, 0);
  (void)pruner.Prepare(*table, table->FullScanSet(), {0, 1, 2});
  ASSERT_TRUE(pruner.boundary().has_value());
  EXPECT_EQ(pruner.boundary()->int64_value(), 90);  // 2nd largest max
}

TEST(TopKPrunerTest, AllNullPartitionAlwaysSkipped) {
  Schema schema({Field{"x", DataType::kInt64, true}});
  auto table = MakeTable("t", schema,
                         {{Value::Null()}, {Value(int64_t{5})}}, 1);
  TopKPrunerConfig cfg;
  cfg.k = 1;
  TopKPruner pruner(cfg, 0);
  EXPECT_TRUE(pruner.ShouldSkip(*table, 0));
  EXPECT_FALSE(pruner.ShouldSkip(*table, 1));
}

TEST(TopKPrunerTest, StrictUpdatesForAggregationShape) {
  auto table = IntTable("t", "x", {{10, 50}});
  TopKPrunerConfig cfg;
  cfg.k = 1;
  cfg.inclusive_updates = false;  // Figure 7d: ties still feed aggregates
  TopKPruner pruner(cfg, 0);
  pruner.UpdateBoundary(Value(int64_t{50}));
  EXPECT_FALSE(pruner.boundary_inclusive());
  EXPECT_FALSE(pruner.ShouldSkip(*table, 0));  // max == boundary, keep
}

TEST(TopKPrunerTest, GroupInitCountsDistinctMaxima) {
  // Three partitions share the top key 100: for GROUP BY x ORDER BY x DESC
  // LIMIT 2 they are one group, so the 2nd group key is at most 90 — a
  // boundary of 100 would drop every group but one.
  auto table = IntTable("t", "x",
                        {{98, 100}, {99, 100}, {97, 100}, {80, 90}, {0, 50}});
  for (BoundaryInitMode mode :
       {BoundaryInitMode::kKthMax, BoundaryInitMode::kCumulativeMin,
        BoundaryInitMode::kStricter}) {
    TopKPrunerConfig cfg;
    cfg.k = 2;
    cfg.boundary_init = mode;
    cfg.inclusive_updates = false;
    TopKPruner pruner(cfg, 0);
    (void)pruner.Prepare(*table, table->FullScanSet(), {0, 1, 2, 3, 4});
    if (mode == BoundaryInitMode::kCumulativeMin) {
      // Row counts say nothing about groups: no boundary from them.
      EXPECT_FALSE(pruner.boundary().has_value()) << ToString(mode);
      continue;
    }
    ASSERT_TRUE(pruner.boundary().has_value()) << ToString(mode);
    EXPECT_EQ(pruner.boundary()->int64_value(), 90) << ToString(mode);
    EXPECT_FALSE(pruner.ShouldSkip(*table, 3)) << ToString(mode);
    EXPECT_TRUE(pruner.ShouldSkip(*table, 4)) << ToString(mode);
  }
}

// ---------------------------------------------------------- JoinPruner ----

TEST(SummaryTest, MinMaxSummary) {
  SummaryBuilder builder;
  builder.Add(Value(int64_t{10}));
  builder.Add(Value(int64_t{90}));
  builder.Add(Value::Null());  // ignored
  auto summary = builder.Build(SummaryKind::kMinMax);
  EXPECT_EQ(summary->num_values(), 2);
  EXPECT_TRUE(summary->MayContainInRange(Value(int64_t{50}), Value(int64_t{60})));
  EXPECT_FALSE(summary->MayContainInRange(Value(int64_t{91}), Value(int64_t{95})));
  EXPECT_TRUE(summary->MayContain(Value(int64_t{42})));  // false positive, OK
}

TEST(SummaryTest, RangeSetIsExactWithinBudget) {
  SummaryBuilder builder;
  for (int64_t v : {5, 10, 100}) builder.Add(Value(v));
  auto summary = builder.Build(SummaryKind::kRangeSet, 1024);
  EXPECT_TRUE(summary->MayContain(Value(int64_t{10})));
  EXPECT_FALSE(summary->MayContain(Value(int64_t{50})));  // gap excluded
  EXPECT_TRUE(summary->MayContainInRange(Value(int64_t{90}), Value(int64_t{200})));
  EXPECT_FALSE(summary->MayContainInRange(Value(int64_t{11}), Value(int64_t{99})));
}

TEST(SummaryTest, RangeSetMergesLargestGapsLast) {
  SummaryBuilder builder;
  // Two tight clusters with a huge gap; budget of 2 ranges must keep the
  // gap as the separator.
  for (int64_t v : {1, 2, 3, 1000, 1001, 1002}) builder.Add(Value(v));
  auto summary = builder.Build(SummaryKind::kRangeSet, /*budget_bytes=*/32);
  EXPECT_LE(summary->SizeBytes(), 48u);
  EXPECT_TRUE(summary->MayContain(Value(int64_t{2})));
  EXPECT_TRUE(summary->MayContain(Value(int64_t{1001})));
  EXPECT_FALSE(summary->MayContain(Value(int64_t{500})));
}

TEST(SummaryTest, EmptyBuildPrunesEverything) {
  SummaryBuilder builder;
  auto summary = builder.Build(SummaryKind::kRangeSet);
  EXPECT_FALSE(summary->MayContainInRange(Value(int64_t{0}), Value(int64_t{100})));
  EXPECT_EQ(summary->num_values(), 0);
}

TEST(SummaryTest, BloomAnswersPointsOnly) {
  SummaryBuilder builder;
  for (int64_t v = 0; v < 50; ++v) builder.Add(Value(v * 2));
  auto bloom = builder.Build(SummaryKind::kBloom, 1024);
  for (int64_t v = 0; v < 50; ++v) {
    EXPECT_TRUE(bloom->MayContain(Value(v * 2)));  // no false negatives
  }
  // Ranges are always "maybe" for a bloom filter.
  EXPECT_TRUE(bloom->MayContainInRange(Value(int64_t{-10}), Value(int64_t{-5})));
  int fp = 0;
  for (int64_t v = 0; v < 50; ++v) {
    if (bloom->MayContain(Value(v * 2 + 1))) ++fp;
  }
  EXPECT_LT(fp, 10);  // low false-positive rate at this sizing
}

TEST(SummaryTest, StringRangeSet) {
  SummaryBuilder builder;
  for (const char* s : {"apple", "apricot", "banana", "cherry"}) {
    builder.Add(Value(s));
  }
  auto summary = builder.Build(SummaryKind::kRangeSet, /*budget_bytes=*/32);
  EXPECT_TRUE(summary->MayContain(Value("banana")));
  EXPECT_FALSE(summary->MayContainInRange(Value("x"), Value("z")));
}

TEST(JoinPrunerTest, PrunesProbePartitionsOutsideSummary) {
  auto probe = IntTable("probe", "k", {{0, 9}, {10, 19}, {20, 29}, {30, 39}});
  SummaryBuilder builder;
  builder.Add(Value(int64_t{12}));
  builder.Add(Value(int64_t{35}));
  auto summary = builder.Build(SummaryKind::kRangeSet);
  auto result = JoinPruner::PruneProbe(*probe, probe->FullScanSet(), 0, *summary);
  EXPECT_EQ(result.pruned, 2);
  ASSERT_EQ(result.scan_set.size(), 2u);
  EXPECT_EQ(result.scan_set[0], 1u);
  EXPECT_EQ(result.scan_set[1], 3u);
}

class JoinPrunerPropertyTest : public ::testing::TestWithParam<SummaryKind> {};

TEST_P(JoinPrunerPropertyTest, NeverPrunesJoinablePartitions) {
  Rng rng(99);
  for (int round = 0; round < 15; ++round) {
    // Random probe table and build values.
    std::vector<std::vector<int64_t>> parts;
    int np = static_cast<int>(rng.UniformInt(1, 12));
    for (int p = 0; p < np; ++p) {
      std::vector<int64_t> vals;
      int n = static_cast<int>(rng.UniformInt(1, 10));
      for (int i = 0; i < n; ++i) vals.push_back(rng.UniformInt(0, 200));
      parts.push_back(std::move(vals));
    }
    auto probe = IntTable("probe", "k", parts);
    SummaryBuilder builder;
    std::vector<int64_t> build_vals;
    int nb = static_cast<int>(rng.UniformInt(0, 20));
    for (int i = 0; i < nb; ++i) {
      build_vals.push_back(rng.UniformInt(0, 200));
      builder.Add(Value(build_vals.back()));
    }
    auto summary = builder.Build(GetParam(), /*budget_bytes=*/64);
    auto result =
        JoinPruner::PruneProbe(*probe, probe->FullScanSet(), 0, *summary);
    std::vector<bool> kept(probe->num_partitions(), false);
    for (PartitionId pid : result.scan_set) kept[pid] = true;
    for (size_t pid = 0; pid < parts.size(); ++pid) {
      bool joinable = false;
      for (int64_t v : parts[pid]) {
        for (int64_t b : build_vals) {
          if (v == b) joinable = true;
        }
      }
      if (joinable) EXPECT_TRUE(kept[pid]) << "partition " << pid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, JoinPrunerPropertyTest,
                         ::testing::Values(SummaryKind::kMinMax,
                                           SummaryKind::kRangeSet,
                                           SummaryKind::kExactSet,
                                           SummaryKind::kBloom));

// ------------------------------------------------------ PredicateCache ----

TEST(PredicateCacheTest, HitReturnsCachedPlusNewPartitions) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  PredicateCache cache;
  cache.Insert("q1", *table, "x", {1});
  auto hit = cache.Lookup("q1", *table);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 1u);
  // INSERT: new partitions are appended at lookup (safe per §8.2).
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(9);
  table->AppendPartition(MicroPartition(3, {std::move(col)}));
  cache.OnInsert(*table);
  hit = cache.Lookup("q1", *table);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[1], 3u);
}

/// One INT64 row `v` as partition `pid` of an IntTable.
MicroPartition IntPartition(PartitionId pid, int64_t v) {
  ColumnVector col(DataType::kInt64);
  col.AppendInt64(v);
  return MicroPartition(pid, {std::move(col)});
}

TEST(PredicateCacheTest, UpdateToOrderColumnInvalidates) {
  auto table = IntTable("t", "x", {{1}, {2}});
  PredicateCache cache;
  cache.Insert("q", *table, "x", {0});
  cache.OnUpdate(*table, "other_column");
  EXPECT_TRUE(cache.Lookup("q", *table).has_value());  // safe update
  cache.OnUpdate(*table, "x");
  EXPECT_FALSE(cache.Lookup("q", *table).has_value());  // reordering update

  // TopK(ts)[Scan(cat = 'c1')]: an UPDATE of cat may make rows qualify
  // outside the cached partitions, so it invalidates too; an UPDATE of a
  // column neither ordered by nor filtered on does not.
  cache.Insert("topk", *table,
               PredicateCache::Population{PredicateCache::Coverage::Of(*table),
                                          "ts", {"cat"}, {1}});
  cache.OnUpdate(*table, "val");
  EXPECT_TRUE(cache.Lookup("topk", *table).has_value());
  cache.OnUpdate(*table, "cat");
  EXPECT_FALSE(cache.Lookup("topk", *table).has_value());
}

TEST(PredicateCacheTest, RefreshKeepsHitCountAndProgram) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  ExprPtr pred = Gt(Col("x"), Lit(int64_t{1}));
  ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
  PredicateCache cache;
  cache.Insert("q", *table, "x", {0, 1});
  for (int i = 0; i < 3; ++i) cache.NoteHit("q");
  auto program = cache.GetOrCompileProgram("q", *table, [&]() {
    jit::CompileResult compiled = jit::CompilePredicate(pred, table->schema());
    compiled.program->table_instance = table->instance_id();
    return std::shared_ptr<const jit::CompiledPredicate>(
        std::move(compiled.program));
  });
  ASSERT_NE(program, nullptr);
  // A repeat run re-publishes the entry: only its scan set changes.
  cache.Insert("q", *table, "x", {1, 2});
  EXPECT_EQ(cache.NoteHit("q"), 4);
  EXPECT_EQ(cache.GetProgram("q", *table), program);
  EXPECT_EQ(cache.Lookup("q", *table), (std::vector<PartitionId>{1, 2}));
}

TEST(PredicateCacheTest, UnnotifiedReplaceOrDeleteMisses) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  PredicateCache cache;
  cache.Insert("q", *table, "x", {1});
  table->ReplacePartition(2, IntPartition(2, 99));  // no OnUpdate
  EXPECT_FALSE(cache.Lookup("q", *table).has_value());
  // Re-populated against the new version, the entry serves again ...
  cache.Insert("q", *table, "x", {2});
  EXPECT_TRUE(cache.Lookup("q", *table).has_value());
  // ... until a DELETE the cache is not told about.
  table->DeletePartition(0);  // no OnDelete
  EXPECT_FALSE(cache.Lookup("q", *table).has_value());
}

TEST(PredicateCacheTest, NotificationRestampsExactlyOneVersionStep) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  PredicateCache cache;
  cache.Insert("q", *table, "x", {1});
  table->ReplacePartition(0, IntPartition(0, 7));
  cache.OnUpdate(*table, "y");
  EXPECT_TRUE(cache.Lookup("q", *table).has_value());
  // Two changes, one notification: the entry cannot know what the other
  // change did, so it is gone.
  table->ReplacePartition(0, IntPartition(0, 8));
  table->ReplacePartition(2, IntPartition(2, 9));
  cache.OnUpdate(*table, "y");
  EXPECT_FALSE(cache.Lookup("q", *table).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PredicateCacheTest, AppendBetweenCompileAndInsertIsScanned) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  PredicateCache cache;
  // The query compiles against three partitions ...
  const PredicateCache::Coverage seen = PredicateCache::Coverage::Of(*table);
  // ... an INSERT lands while it runs ...
  table->AppendPartition(IntPartition(3, 4));
  cache.OnInsert(*table);
  // ... and its entry claims only what it saw: partition 3 is scanned on
  // every hit until an entry covers it.
  cache.Insert("scan", *table,
               PredicateCache::Population{seen, "", {"x"}, {1}});
  EXPECT_EQ(cache.Lookup("scan", *table), (std::vector<PartitionId>{1, 3}));
}

TEST(PredicateCacheTest, WriteStaleAtInsertIsDropped) {
  auto table = IntTable("t", "x", {{1}, {2}});
  PredicateCache cache;
  const PredicateCache::Coverage seen = PredicateCache::Coverage::Of(*table);
  table->ReplacePartition(1, IntPartition(1, 5));
  cache.OnUpdate(*table, "x");
  // The query compiled before the UPDATE; its partition set may be wrong
  // for the new data, so publishing it would be unsafe.
  cache.Insert("scan", *table,
               PredicateCache::Population{seen, "", {"x"}, {0}});
  EXPECT_FALSE(cache.Lookup("scan", *table).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PredicateCacheTest, DeleteDropsPartitionFromScanEntry) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}, {4}});
  PredicateCache cache;
  cache.Insert("scan", *table,
               PredicateCache::Population{PredicateCache::Coverage::Of(*table),
                                          "", {"x"}, {1, 3}});
  table->DeletePartition(1);
  cache.OnDelete(*table, 1);
  // Every remaining qualifying partition is still listed (3 -> 2).
  EXPECT_EQ(cache.Lookup("scan", *table), (std::vector<PartitionId>{2}));
}

TEST(PredicateCacheTest, DeleteOfContributingPartitionInvalidates) {
  auto table = IntTable("t", "x", {{1}, {2}, {3}});
  PredicateCache cache;
  cache.Insert("q", *table, "x", {1});
  cache.Insert("other", *table, "x", {2});
  table->DeletePartition(1);
  cache.OnDelete(*table, 1);
  EXPECT_FALSE(cache.Lookup("q", *table).has_value());
  // The other entry survives with remapped ids (2 -> 1).
  auto hit = cache.Lookup("other", *table);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0], 1u);
}

TEST(PredicateCacheTest, CapacityEvictsOldest) {
  auto table = IntTable("t", "x", {{1}});
  PredicateCache cache(2);
  cache.Insert("a", *table, "x", {0});
  cache.Insert("b", *table, "x", {0});
  cache.Insert("c", *table, "x", {0});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("a", *table).has_value());
  EXPECT_TRUE(cache.Lookup("c", *table).has_value());
}

}  // namespace
}  // namespace snowprune
