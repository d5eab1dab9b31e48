#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "exec/parallel/parallel_scan.h"
#include "exec/parallel/thread_pool.h"
#include "expr/builder.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using testing_util::DiffStats;
using testing_util::MakeTable;
using testing_util::Serialize;

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < kTasks) std::this_thread::yield();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    done.fetch_add(1);
  });
  while (done.load() < 11) std::this_thread::yield();
  EXPECT_EQ(done.load(), 11);
}

TEST(ThreadPoolTest, DestructorDrainsCleanly) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) pool.Submit([&] { ran.fetch_add(1); });
  }  // must not hang or crash; queued tasks may or may not have run
  SUCCEED();
}

TEST(ThreadPoolTest, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultConcurrency(), 1u);
}

// --------------------------------------------------------------------------
// ParallelScanScheduler
// --------------------------------------------------------------------------

/// A morsel function that tags each result with its index (via the
/// scanned_rows stat, since ColumnBatch payloads need a real partition);
/// odd indexes are "pruned" (loaded = false).
MorselResult IndexMorsel(size_t index) {
  MorselResult r;
  r.items.resize(1);
  MorselItem& item = r.items[0];
  item.loaded = (index % 2 == 0);
  if (item.loaded) {
    item.stats.scanned_partitions = 1;
    item.stats.scanned_rows = static_cast<int64_t>(index);
  } else {
    item.stats.pruned_by_filter = 1;
  }
  return r;
}

TEST(ParallelScanSchedulerTest, DeliversAllMorselsInOrder) {
  ThreadPool pool(4);
  for (size_t window : {size_t{1}, size_t{3}, size_t{64}}) {
    ParallelScanScheduler sched(&pool, 37, IndexMorsel, window);
    MorselResult morsel;
    int64_t expected = 0;
    PruningStats stats;
    while (sched.Next(&morsel)) {
      ASSERT_EQ(morsel.items.size(), 1u);
      stats.Merge(morsel.items[0].stats);
      if (morsel.items[0].loaded) {
        EXPECT_EQ(morsel.items[0].stats.scanned_rows, expected);
      }
      ++expected;
    }
    EXPECT_EQ(expected, 37);
    EXPECT_EQ(stats.scanned_partitions, 19);  // even indexes 0..36
    EXPECT_EQ(stats.pruned_by_filter, 18);
    EXPECT_FALSE(sched.Next(&morsel));  // exhausted stays exhausted
  }
}

TEST(ParallelScanSchedulerTest, EmptyScanSet) {
  ThreadPool pool(2);
  ParallelScanScheduler sched(&pool, 0, IndexMorsel, 8);
  MorselResult morsel;
  EXPECT_FALSE(sched.Next(&morsel));
}

TEST(ParallelScanSchedulerTest, AbandonedMidwayCancelsCleanly) {
  ThreadPool pool(4);
  std::atomic<int> processed{0};
  {
    ParallelScanScheduler sched(
        &pool, 1000,
        [&](size_t index) {
          processed.fetch_add(1);
          return IndexMorsel(index);
        },
        8);
    MorselResult morsel;
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(sched.Next(&morsel));
  }  // destructor cancels the remaining ~995 morsels
  EXPECT_LT(processed.load(), 1000);
}

// --------------------------------------------------------------------------
// Engine-level serial/parallel equivalence
// --------------------------------------------------------------------------

/// Row serialization and deterministic-stats comparison live in
/// tests/test_util.h (shared with the service concurrency suite).
void ExpectSameStats(const PruningStats& a, const PruningStats& b) {
  EXPECT_EQ(DiffStats(a, b), "");
}

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::TableGenConfig cfg;
    cfg.name = "fact";
    cfg.num_partitions = 40;
    cfg.rows_per_partition = 120;
    cfg.layout = workload::Layout::kClustered;
    cfg.overlap = 0.02;
    cfg.null_fraction = 0.1;
    cfg.num_categories = 12;
    cfg.seed = 77;
    ASSERT_TRUE(catalog_.RegisterTable(workload::SyntheticTable(cfg)).ok());

    Schema dim_schema({Field{"dkey", DataType::kInt64, false},
                       Field{"dname", DataType::kString, false}});
    std::vector<std::vector<Value>> rows;
    for (int i = 0; i < 30; ++i) {
      rows.push_back(
          {Value(int64_t{i * 40000}), Value("d" + std::to_string(i))});
    }
    ASSERT_TRUE(catalog_.RegisterTable(MakeTable("dim", dim_schema, rows, 8))
                    .ok());
  }

  QueryResult Run(const PlanPtr& plan, int num_threads,
                  EngineConfig config = EngineConfig()) {
    config.exec.num_threads = num_threads;
    Engine engine(&catalog_, config);
    auto result = engine.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  /// Runs `plan` serially and with 2 and 8 workers (plus a 1-morsel window,
  /// the tightest scheduling) and requires byte-identical rows and identical
  /// deterministic stats.
  void ExpectParallelMatchesSerial(const PlanPtr& plan,
                                   EngineConfig config = EngineConfig()) {
    QueryResult serial = Run(plan, 1, config);
    EXPECT_EQ(serial.stats.speculative_loads, 0);
    for (int threads : {2, 8}) {
      QueryResult parallel = Run(plan, threads, config);
      EXPECT_EQ(Serialize(serial), Serialize(parallel))
          << "rows diverged at num_threads=" << threads;
      ExpectSameStats(serial.stats, parallel.stats);
    }
    EngineConfig tight = config;
    tight.exec.morsel_window = 1;
    QueryResult windowed = Run(plan, 4, tight);
    EXPECT_EQ(Serialize(serial), Serialize(windowed));
    ExpectSameStats(serial.stats, windowed.stats);
  }

  Catalog catalog_;
};

TEST_F(ParallelEquivalenceTest, FullScan) {
  ExpectParallelMatchesSerial(ScanPlan("fact"));
}

TEST_F(ParallelEquivalenceTest, FilteredScanCompileTime) {
  ExpectParallelMatchesSerial(ScanPlan(
      "fact", Between(Col("key"), Value(int64_t{100000}),
                      Value(int64_t{400000}))));
  ExpectParallelMatchesSerial(
      ScanPlan("fact", Gt(Col("key"), Lit(int64_t{800000}))));
}

TEST_F(ParallelEquivalenceTest, ComplexPredicate) {
  ExpectParallelMatchesSerial(ScanPlan(
      "fact",
      And({Or({Lt(Col("key"), Lit(int64_t{200000})),
               Gt(Add(Col("key"), Col("id")), Lit(int64_t{900000}))}),
           Not(IsNull(Col("val"))), StartsWith(Col("cat"), "c0")})));
}

TEST_F(ParallelEquivalenceTest, TopKDescending) {
  ExpectParallelMatchesSerial(
      TopKPlan(ScanPlan("fact"), "key", /*descending=*/true, 25));
}

TEST_F(ParallelEquivalenceTest, TopKAscendingWithPredicate) {
  ExpectParallelMatchesSerial(
      TopKPlan(ScanPlan("fact", Gt(Col("val"), Lit(0.25))), "key",
               /*descending=*/false, 10));
}

TEST_F(ParallelEquivalenceTest, Limit) {
  ExpectParallelMatchesSerial(
      LimitPlan(ScanPlan("fact", Lt(Col("key"), Lit(int64_t{500000}))), 40));
}

TEST_F(ParallelEquivalenceTest, JoinWithPruning) {
  ExpectParallelMatchesSerial(
      JoinPlan(ScanPlan("fact"),
               ScanPlan("dim", Lt(Col("dkey"), Lit(int64_t{200000}))), "key",
               "dkey"));
}

TEST_F(ParallelEquivalenceTest, AggregateExactPreAgg) {
  // COUNT/SUM/MIN/MAX/AVG over int64 inputs: the parallel pre-aggregation
  // path must engage and still match serial bit-for-bit.
  ExpectParallelMatchesSerial(AggregatePlan(
      ScanPlan("fact"), {"cat"},
      {AggPlanSpec{AggFunc::kCount, "", "n"},
       AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
       AggPlanSpec{AggFunc::kAvg, "id", "id_avg"},
       AggPlanSpec{AggFunc::kMin, "ts", "ts_min"},
       AggPlanSpec{AggFunc::kMax, "key", "key_max"}}));
}

TEST_F(ParallelEquivalenceTest, AggregateFloatFallsBackToSerialConsumption) {
  // SUM over a float column is not exactly mergeable; the operator must
  // fall back to consuming ordered row batches (still parallel loads).
  ExpectParallelMatchesSerial(AggregatePlan(
      ScanPlan("fact", Gt(Col("key"), Lit(int64_t{250000}))), {"cat"},
      {AggPlanSpec{AggFunc::kSum, "val", "val_sum"},
       AggPlanSpec{AggFunc::kCount, "", "n"}}));
}

TEST_F(ParallelEquivalenceTest, GroupLimitTopK) {
  // Figure 7d shape: GROUP BY key ORDER BY key LIMIT k.
  ExpectParallelMatchesSerial(
      TopKPlan(AggregatePlan(ScanPlan("fact"), {"key"},
                             {AggPlanSpec{AggFunc::kCount, "", "n"}}),
               "key", /*descending=*/true, 12));
}

TEST_F(ParallelEquivalenceTest, ScanSetSmallerThanPoolAndWindow) {
  // 40-partition table, 8 threads, giant window: degenerate sizing must
  // neither deadlock nor duplicate work. Also a single-partition slice.
  EngineConfig config;
  config.exec.morsel_window = 4096;
  ExpectParallelMatchesSerial(ScanPlan("fact"), config);
  ExpectParallelMatchesSerial(
      ScanPlan("fact", Eq(Col("id"), Lit(int64_t{5}))), config);
}

TEST_F(ParallelEquivalenceTest, SpeculativeLoadsStaySerialEquivalent) {
  // With a deliberately topk-hostile setup (no boundary init, arrival
  // order) parallel workers race ahead; the consumer-side re-check must
  // keep rows and stats serial-identical, surfacing only speculation.
  EngineConfig config;
  config.topk_order_strategy = OrderStrategy::kNone;
  config.topk_boundary_init = BoundaryInitMode::kNone;
  auto plan = TopKPlan(ScanPlan("fact"), "key", true, 5);
  QueryResult serial = Run(plan, 1, config);
  QueryResult parallel = Run(plan, 8, config);
  EXPECT_EQ(Serialize(serial), Serialize(parallel));
  ExpectSameStats(serial.stats, parallel.stats);
  EXPECT_GE(parallel.stats.speculative_loads, 0);
}

TEST_F(ParallelEquivalenceTest, SpeculativeLoadsAccountExactlyForWastedLoads) {
  // The accounting audit: under the columnar path, every partition load the
  // table meters must be either a delivered scan (scanned_partitions) or a
  // re-check drop (speculative_loads) — never both, never neither — and
  // every partition of a single-scan top-k query must end up scanned or
  // pruned. Checked across thread counts, windows, and morsel budgets,
  // with the topk-hostile config that maximizes speculation.
  auto table = catalog_.GetTable("fact");
  ASSERT_NE(table, nullptr);
  auto plan = TopKPlan(ScanPlan("fact"), "key", true, 5);
  for (bool hostile : {false, true}) {
    EngineConfig config;
    if (hostile) {
      config.topk_order_strategy = OrderStrategy::kNone;
      config.topk_boundary_init = BoundaryInitMode::kNone;
    }
    table->ResetMeters();
    QueryResult serial = Run(plan, 1, config);
    EXPECT_EQ(serial.stats.speculative_loads, 0);
    EXPECT_EQ(table->load_count(), serial.stats.scanned_partitions);

    for (size_t morsel_min_rows : {size_t{0}, size_t{250}, size_t{100000}}) {
      for (int threads : {2, 8}) {
        EngineConfig pconfig = config;
        pconfig.exec.morsel_min_rows = morsel_min_rows;
        table->ResetMeters();
        QueryResult parallel = Run(plan, threads, pconfig);
        ExpectSameStats(serial.stats, parallel.stats);
        EXPECT_EQ(table->load_count(), parallel.stats.scanned_partitions +
                                           parallel.stats.speculative_loads)
            << "threads=" << threads << " morsel_min_rows=" << morsel_min_rows
            << " hostile=" << hostile;
        EXPECT_EQ(parallel.stats.scanned_partitions +
                      parallel.stats.TotalPruned(),
                  parallel.stats.total_partitions);
      }
    }
  }
  table->ResetMeters();
}

TEST_F(ParallelEquivalenceTest, MorselBatchingMatchesSerialAtEveryBudget) {
  // Small partitions batched into multi-partition morsels must not change
  // results or stats for any budget (0 = one partition per morsel; huge =
  // the whole scan set in one morsel).
  auto scan = ScanPlan(
      "fact", Between(Col("key"), Value(int64_t{50000}),
                      Value(int64_t{700000})));
  auto agg = AggregatePlan(ScanPlan("fact"), {"cat"},
                           {AggPlanSpec{AggFunc::kCount, "", "n"},
                            AggPlanSpec{AggFunc::kSum, "key", "key_sum"}});
  for (const auto& plan : {scan, agg}) {
    QueryResult serial = Run(plan, 1);
    for (size_t budget : {size_t{0}, size_t{100}, size_t{500},
                          size_t{1000000}}) {
      EngineConfig config;
      config.exec.morsel_min_rows = budget;
      QueryResult parallel = Run(plan, 4, config);
      EXPECT_EQ(Serialize(serial), Serialize(parallel))
          << "morsel_min_rows=" << budget;
      ExpectSameStats(serial.stats, parallel.stats);
    }
  }
}

TEST_F(ParallelEquivalenceTest, ForceParallelSingleWorkerMatchesSerial) {
  // force_parallel runs the whole morsel machinery on a one-worker pool —
  // the configuration bench_headline uses to meter pure parallel-path
  // overhead. Must be byte-identical to the poolless serial path.
  for (const auto& plan :
       {ScanPlan("fact"),
        AggregatePlan(ScanPlan("fact"), {"cat"},
                      {AggPlanSpec{AggFunc::kCount, "", "n"},
                       AggPlanSpec{AggFunc::kMax, "key", "key_max"}}),
        TopKPlan(ScanPlan("fact"), "key", true, 10)}) {
    QueryResult serial = Run(plan, 1);
    EngineConfig config;
    config.exec.force_parallel = true;
    QueryResult forced = Run(plan, 1, config);
    EXPECT_EQ(Serialize(serial), Serialize(forced));
    ExpectSameStats(serial.stats, forced.stats);
  }
}

}  // namespace
}  // namespace snowprune
