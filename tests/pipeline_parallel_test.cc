/// Pipeline-parallel operator suite: the task-pipeline layer (morsel
/// stages, the deterministic JoinHashTable) plus the three operators
/// that run worker-side stages — join build, top-k candidate filter, sorted
/// runs — must produce rows AND PruningStats byte-identical to serial
/// execution at every thread count, and per-query cancellation must abort
/// promptly and release the pool. Runs under ThreadSanitizer in CI
/// (build-tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/engine.h"
#include "exec/join_op.h"
#include "exec/parallel/pipeline.h"
#include "exec/plan.h"
#include "expr/builder.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using testing_util::DiffStats;
using testing_util::Serialize;

// ---------------------------------------------------------------------------
// JoinHashTable
// ---------------------------------------------------------------------------

std::vector<size_t> Matches(const JoinHashTable& table, uint64_t hash) {
  std::vector<size_t> out;
  table.ForEachMatch(hash, [&](size_t index) { out.push_back(index); });
  return out;
}

TEST(JoinHashTableTest, MatchesComeOutInBuildOrder) {
  // Duplicate hashes interleaved with others, at 100 entries and at 2^17
  // (heavy duplicates plus a random spread): a probe must return exactly
  // the entries carrying its hash, ascending by index.
  std::vector<JoinHashTable::Entry> small;
  for (uint64_t i = 0; i < 100; ++i) {
    small.push_back(JoinHashTable::Entry{i % 7, i});
  }
  Rng rng(7771);
  std::vector<JoinHashTable::Entry> large;
  for (uint64_t i = 0; i < (uint64_t{1} << 17); ++i) {
    const uint64_t h = rng.Bernoulli(0.2)
                           ? static_cast<uint64_t>(rng.UniformInt(0, 15))
                           : rng.Next();
    large.push_back(JoinHashTable::Entry{h, i});
  }
  for (const auto& entries : {small, large}) {
    std::map<uint64_t, std::vector<size_t>> expected;
    for (const JoinHashTable::Entry& e : entries) {
      expected[e.hash].push_back(static_cast<size_t>(e.index));
    }
    JoinHashTable table;
    table.Build(entries);
    ASSERT_EQ(table.size(), entries.size());
    for (const auto& [hash, indices] : expected) {
      ASSERT_EQ(Matches(table, hash), indices)
          << entries.size() << " entries, hash " << hash;
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline-parallel operators: byte identity vs. serial
// ---------------------------------------------------------------------------

std::shared_ptr<Catalog> PipelineCatalog() {
  auto catalog = std::make_shared<Catalog>();
  workload::TableGenConfig probe;
  probe.name = "probe";
  probe.num_partitions = 40;
  probe.rows_per_partition = 200;
  probe.layout = workload::Layout::kRandom;  // worst case: nothing prunes
  probe.null_fraction = 0.1;
  probe.num_categories = 12;
  probe.seed = 99;
  EXPECT_TRUE(catalog->RegisterTable(workload::SyntheticTable(probe)).ok());
  workload::TableGenConfig build;
  build.name = "build";
  build.num_partitions = 6;
  build.rows_per_partition = 80;
  build.domain_min = 0;
  build.domain_max = 1'000'000;
  build.null_fraction = 0.05;
  build.seed = 100;
  EXPECT_TRUE(catalog->RegisterTable(workload::SyntheticTable(build)).ok());
  // A build side above 2^15 non-NULL keys (~38,000 of 40,000 rows).
  workload::TableGenConfig big_build = build;
  big_build.name = "big_build";
  big_build.num_partitions = 40;
  big_build.rows_per_partition = 1000;
  big_build.seed = 101;
  EXPECT_TRUE(
      catalog->RegisterTable(workload::SyntheticTable(big_build)).ok());
  return catalog;
}

QueryResult RunWith(Catalog* catalog, const PlanPtr& plan, int threads,
                    bool force_parallel) {
  EngineConfig config;
  config.exec.num_threads = threads;
  config.exec.force_parallel = force_parallel;
  config.exec.morsel_min_rows = 0;  // one partition per morsel: many stages
  Engine engine(catalog, config);
  auto result = engine.Execute(plan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PipelineParallelTest, OperatorsMatchSerialByteForByte) {
  auto catalog = PipelineCatalog();
  ExprPtr filter = Between(Col("key"), Value(int64_t{100000}),
                           Value(int64_t{900000}));
  struct Shape {
    const char* name;
    PlanPtr plan;
  };
  const Shape shapes[] = {
      {"join", JoinPlan(ScanPlan("probe"), ScanPlan("build"), "key", "key")},
      {"join_dup_keys",
       JoinPlan(ScanPlan("probe"), ScanPlan("build"), "cat", "cat")},
      {"join_big_build",
       JoinPlan(ScanPlan("probe"), ScanPlan("big_build"), "key", "key")},
      {"topk", TopKPlan(ScanPlan("probe", filter), "val",
                        /*descending=*/true, 50)},
      {"topk_asc", TopKPlan(ScanPlan("probe"), "key",
                            /*descending=*/false, 17)},
      {"sort", SortPlan(ScanPlan("probe", filter), "val",
                        /*descending=*/false)},
      {"sort_dup_keys", SortPlan(ScanPlan("probe"), "cat",
                                 /*descending=*/true)},
  };
  for (const Shape& shape : shapes) {
    const QueryResult serial = RunWith(catalog.get(), shape.plan, 1, false);
    const std::string serial_rows = Serialize(serial);
    struct Mode {
      int threads;
      bool force;
    };
    for (const Mode mode : {Mode{1, true}, Mode{2, false}, Mode{4, false}}) {
      const int64_t stages_before = PipelineCounters::stage_tasks();
      const QueryResult parallel =
          RunWith(catalog.get(), shape.plan, mode.threads, mode.force);
      ASSERT_EQ(serial_rows, Serialize(parallel))
          << shape.name << " rows diverged at threads=" << mode.threads
          << " force=" << mode.force;
      ASSERT_EQ(DiffStats(serial.stats, parallel.stats), "")
          << shape.name << " stats diverged at threads=" << mode.threads
          << " force=" << mode.force;
      // The parallel path must actually have run worker-side stages (a
      // silently-serial regression is a perf bug this suite must catch).
      ASSERT_GT(PipelineCounters::stage_tasks(), stages_before)
          << shape.name << " ran no pipeline stages at threads="
          << mode.threads << " force=" << mode.force;
    }
  }
}

/// Duplicate-heavy sort keys across partitions: the k-way merge's tie
/// breaking (earlier run first) must reproduce stable_sort order exactly.
TEST(PipelineParallelTest, SortStabilityUnderDuplicatesAndNulls) {
  Schema schema({Field{"k", DataType::kInt64, true},
                 Field{"tag", DataType::kInt64, false}});
  std::vector<std::vector<Value>> rows;
  Rng rng(4242);
  for (int64_t i = 0; i < 600; ++i) {
    // Keys from a tiny domain (lots of cross-partition ties), 15% NULLs.
    Value key = rng.Bernoulli(0.15) ? Value::Null()
                                    : Value(rng.UniformInt(0, 4));
    rows.push_back({std::move(key), Value(i)});
  }
  auto catalog = std::make_shared<Catalog>();
  ASSERT_TRUE(catalog
                  ->RegisterTable(testing_util::MakeTable(
                      "dups", schema, rows, /*rows_per_partition=*/16))
                  .ok());
  for (bool desc : {false, true}) {
    auto plan = SortPlan(ScanPlan("dups"), "k", desc);
    const QueryResult serial = RunWith(catalog.get(), plan, 1, false);
    for (int threads : {2, 4}) {
      const QueryResult parallel =
          RunWith(catalog.get(), plan, threads, false);
      ASSERT_EQ(Serialize(serial), Serialize(parallel))
          << "desc=" << desc << " threads=" << threads;
    }
  }
}

/// NaN order keys: '<' on doubles is not a strict weak ordering with NaN in
/// the mix, so neither per-run sorting + merge (sort) nor the local-heap /
/// snapshot filter proofs (top-k) are valid around NaNs. The operators must
/// detect this and fall back so parallel output stays byte-identical to
/// serial — this reproduces the review's divergence case: partitions
/// [5, NaN] [3, NaN] [1, 4] sorted ascending.
TEST(PipelineParallelTest, NanOrderKeysStayByteIdenticalToSerial) {
  const double kNan = std::nan("");
  Schema schema({Field{"v", DataType::kFloat64, true},
                 Field{"tag", DataType::kInt64, false}});
  std::vector<std::vector<Value>> rows = {
      {Value(5.0), Value(int64_t{0})},  {Value(kNan), Value(int64_t{1})},
      {Value(3.0), Value(int64_t{2})},  {Value(kNan), Value(int64_t{3})},
      {Value(1.0), Value(int64_t{4})},  {Value(4.0), Value(int64_t{5})},
  };
  // A second helping with more NaNs scattered across partitions.
  Rng rng(515);
  for (int64_t i = 6; i < 200; ++i) {
    Value v = rng.Bernoulli(0.2)
                  ? Value(kNan)
                  : (rng.Bernoulli(0.1) ? Value::Null()
                                        : Value(rng.Uniform() * 100.0));
    rows.push_back({std::move(v), Value(i)});
  }
  auto catalog = std::make_shared<Catalog>();
  ASSERT_TRUE(catalog
                  ->RegisterTable(testing_util::MakeTable(
                      "nans", schema, rows, /*rows_per_partition=*/2))
                  .ok());
  struct Shape {
    const char* name;
    PlanPtr plan;
  };
  const Shape shapes[] = {
      {"sort_asc", SortPlan(ScanPlan("nans"), "v", false)},
      {"sort_desc", SortPlan(ScanPlan("nans"), "v", true)},
      {"topk_desc", TopKPlan(ScanPlan("nans"), "v", true, 7)},
      {"topk_asc", TopKPlan(ScanPlan("nans"), "v", false, 7)},
  };
  for (const Shape& shape : shapes) {
    const QueryResult serial = RunWith(catalog.get(), shape.plan, 1, false);
    struct Mode {
      int threads;
      bool force;
    };
    for (const Mode mode : {Mode{1, true}, Mode{2, false}, Mode{4, false}}) {
      const QueryResult parallel =
          RunWith(catalog.get(), shape.plan, mode.threads, mode.force);
      ASSERT_EQ(Serialize(serial), Serialize(parallel))
          << shape.name << " diverged with NaN keys at threads="
          << mode.threads << " force=" << mode.force;
      ASSERT_EQ(DiffStats(serial.stats, parallel.stats), "")
          << shape.name << " stats diverged with NaN keys at threads="
          << mode.threads << " force=" << mode.force;
    }
  }
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(PipelineParallelTest, PreSetCancelAbortsBeforeAnyLoad) {
  auto catalog = PipelineCatalog();
  auto plan = AggregatePlan(ScanPlan("probe"), {"cat"},
                            {AggPlanSpec{AggFunc::kCount, "", "n"}});
  EngineConfig config;
  config.exec.num_threads = 4;
  Engine engine(catalog.get(), config);
  std::atomic<bool> cancel{true};
  catalog->ResetMeters();
  auto result = engine.Execute(plan, &cancel);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Cancelled before Open: no partition was ever loaded.
  EXPECT_EQ(catalog->TotalLoads(), 0);
}

TEST(PipelineParallelTest, MidRunCancelReturnsCancelledAndJoinsWorkers) {
  auto catalog = PipelineCatalog();
  auto plan = SortPlan(ScanPlan("probe"), "val", /*descending=*/true);
  EngineConfig config;
  config.exec.num_threads = 2;
  config.exec.morsel_min_rows = 0;
  Engine engine(catalog.get(), config);
  std::atomic<bool> cancel{false};
  Result<QueryResult> result = Status::Internal("pending");
  std::thread runner([&] { result = engine.Execute(plan, &cancel); });
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  cancel.store(true);
  runner.join();  // must return promptly — no hang on abandoned morsels
  // Depending on timing the query either finished first or was cancelled;
  // both are valid, nothing may crash, leak workers, or deadlock.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  // The engine (and its pool) stay usable for the next query.
  auto again = engine.Execute(plan);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again.value().rows.empty());
}

}  // namespace
}  // namespace snowprune
