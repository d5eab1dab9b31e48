/// Sharded scatter-gather execution: the coordinator's cross-shard pruning
/// level (shard-summary exclusion before any shard is contacted), gather-side
/// merge determinism for the stateful operators, one worker pool and no
/// other thread for every shard's slice scan, cancellation fan-out, shard
/// maps that follow in-place DML, DML snapshot atomicity through the query
/// service, and the service's shard-aware morsel-window budgeting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "expr/builder.h"
#include "service/query_service.h"
#include "shard/coordinator.h"
#include "shard/shard_map.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using shard::ShardCoordinator;
using shard::ShardExecConfig;
using shard::ShardMap;
using shard::ShardPolicy;
using testing_util::DiffStats;
using testing_util::IntTable;
using testing_util::MakeTable;
using testing_util::Serialize;

/// A clustered int table whose partitions hold disjoint key ranges — the
/// layout where range shards get tight merged zone maps, i.e. where the
/// cross-shard level can actually fire.
std::shared_ptr<Table> RangedTable(const std::string& name,
                                   size_t partitions = 8,
                                   size_t rows_per_partition = 10) {
  std::vector<std::vector<int64_t>> parts;
  int64_t v = 0;
  for (size_t p = 0; p < partitions; ++p) {
    std::vector<int64_t> rows;
    for (size_t r = 0; r < rows_per_partition; ++r) rows.push_back(v++);
    parts.push_back(std::move(rows));
  }
  return IntTable(name, "key", parts);
}

QueryResult RunSerial(Catalog* catalog, const PlanPtr& plan) {
  EngineConfig config;
  config.exec.num_threads = 1;
  Engine engine(catalog, config);
  auto result = engine.Execute(plan);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Cross-shard pruning level
// ---------------------------------------------------------------------------

/// A predicate excluded by every shard's merged zone map must answer from
/// shard summaries alone: no shard contacted, no partition loaded — and
/// rows + deterministic stats still identical to a serial single-engine run
/// (shard counters additive on top).
TEST(ShardExecTest, AllShardsPrunedAnswersFromSummariesAlone) {
  Catalog catalog;
  auto table = RangedTable("t", 8, 10);  // keys 0..79
  ASSERT_TRUE(catalog.RegisterTable(table).ok());
  auto plan = ScanPlan("t", Gt(Col("key"), Lit(int64_t{1000})));
  QueryResult serial = RunSerial(&catalog, plan);

  ShardExecConfig config;
  config.num_shards = 4;
  ShardCoordinator coordinator(&catalog, config);
  table->ResetMeters();
  auto result = coordinator.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.value();

  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(Serialize(serial), Serialize(r));
  EXPECT_EQ(DiffStats(serial.stats, r.stats), "");
  EXPECT_EQ(table->load_count(), 0);

  const auto& info = coordinator.last_exec();
  EXPECT_TRUE(info.sharded);
  EXPECT_EQ(info.shards_contacted, 0u);
  // Every shard was excluded by its merged zone map, not merely by the
  // per-partition pass.
  for (uint8_t pruned : info.summary_pruned) EXPECT_EQ(pruned, 1);
  EXPECT_EQ(r.stats.shards_total, 4);
  EXPECT_EQ(r.stats.shards_pruned, 4);
  // The cross-shard level is additive: the serial run has no shard counters.
  EXPECT_EQ(serial.stats.shards_total, 0);
  EXPECT_EQ(serial.stats.shards_pruned, 0);
}

/// A predicate matching exactly one range shard contacts only that shard.
TEST(ShardExecTest, SingleSurvivingShardRunsInline) {
  Catalog catalog;
  auto table = RangedTable("t", 8, 10);  // keys 0..79, 2 partitions/shard
  ASSERT_TRUE(catalog.RegisterTable(table).ok());
  auto plan = ScanPlan("t", Between(Col("key"), Value(int64_t{0}),
                                    Value(int64_t{5})));
  QueryResult serial = RunSerial(&catalog, plan);

  ShardExecConfig config;
  config.num_shards = 4;
  ShardCoordinator coordinator(&catalog, config);
  auto result = coordinator.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(Serialize(serial), Serialize(result.value()));
  EXPECT_EQ(DiffStats(serial.stats, result.value().stats), "");
  const auto& info = coordinator.last_exec();
  EXPECT_TRUE(info.sharded);
  EXPECT_EQ(info.shards_contacted, 1u);
  EXPECT_EQ(result.value().stats.shards_total, 4);
  EXPECT_EQ(result.value().stats.shards_pruned, 3);
}

/// shards_total counts shards that actually hold partitions: with more
/// shards than partitions the empty ones are never assigned, never counted,
/// never contacted.
TEST(ShardExecTest, EmptyShardsAreNeverAssignedOrCounted) {
  Catalog catalog;
  auto table = RangedTable("t", 3, 4);
  ASSERT_TRUE(catalog.RegisterTable(table).ok());
  ShardMap map = ShardMap::Build(*table, 8, ShardPolicy::kRange);
  EXPECT_LE(map.assigned_shards(), 3u);

  ShardExecConfig config;
  config.num_shards = 8;
  ShardCoordinator coordinator(&catalog, config);
  auto plan = ScanPlan("t");
  auto result = coordinator.Execute(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.shards_total,
            static_cast<int64_t>(map.assigned_shards()));
  EXPECT_EQ(result.value().stats.shards_pruned, 0);
}

// ---------------------------------------------------------------------------
// Gather-side merge determinism
// ---------------------------------------------------------------------------

/// Aggregate / top-k / sort results must be byte-identical (rows AND
/// deterministic stats) to a serial single-engine run at every shard count
/// × engine thread count — including Float64 order keys with NaN,
/// where the sort's comparator fallback decides placement.
TEST(ShardExecTest, GatherMergeIsDeterministicAcrossShardAndThreadCounts) {
  Catalog catalog;
  Schema schema({Field{"key", DataType::kInt64, false},
                 Field{"val", DataType::kFloat64, true},
                 Field{"cat", DataType::kString, false}});
  std::vector<std::vector<Value>> rows;
  const double nan = std::nan("");
  for (int64_t i = 0; i < 96; ++i) {
    Value val = i % 7 == 0 ? Value(nan)
                           : (i % 5 == 0 ? Value() : Value(i * 0.75 - 20.0));
    rows.push_back({Value(i), val, Value("c" + std::to_string(i % 4))});
  }
  auto table = MakeTable("g", schema, rows, 8);
  ASSERT_TRUE(catalog.RegisterTable(table).ok());

  ExprPtr pred = Gt(Col("key"), Lit(int64_t{10}));
  ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
  const PlanPtr plans[] = {
      AggregatePlan(ScanPlan("g", pred), {"cat"},
                    {AggPlanSpec{AggFunc::kCount, "", "n"},
                     AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
                     AggPlanSpec{AggFunc::kMin, "val", "val_min"}}),
      TopKPlan(ScanPlan("g", pred), "key", true, 7),
      TopKPlan(ScanPlan("g", pred), "val", false, 9),
      SortPlan(ScanPlan("g", pred), "val", true),
      SortPlan(ScanPlan("g"), "key", false),
      LimitPlan(ScanPlan("g", pred), 13),
  };
  for (size_t i = 0; i < sizeof(plans) / sizeof(plans[0]); ++i) {
    QueryResult serial = RunSerial(&catalog, plans[i]);
    for (size_t shards : {1u, 2u, 4u}) {
      for (int threads : {1, 2, 4}) {
        ShardExecConfig config;
        config.num_shards = shards;
        config.engine.exec.num_threads = threads;
        ShardCoordinator coordinator(&catalog, config);
        auto result = coordinator.Execute(plans[i]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const std::string ctx = "plan " + std::to_string(i) + " shards " +
                                std::to_string(shards) + " threads " +
                                std::to_string(threads);
        EXPECT_TRUE(coordinator.last_exec().sharded) << ctx;
        ASSERT_EQ(Serialize(serial), Serialize(result.value())) << ctx;
        ASSERT_EQ(DiffStats(serial.stats, result.value().stats), "") << ctx;
      }
    }
  }
}

/// Joins are not a scatter-gather shape — they must fall back to the plain
/// single-engine path, byte-identically, with no shard counters.
TEST(ShardExecTest, JoinsFallBackToSingleEngine) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("probe", 6, 8)).ok());
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("build", 2, 8)).ok());
  auto plan = JoinPlan(ScanPlan("probe"), ScanPlan("build"), "key", "key");
  QueryResult serial = RunSerial(&catalog, plan);

  ShardExecConfig config;
  config.num_shards = 4;
  ShardCoordinator coordinator(&catalog, config);
  auto result = coordinator.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(coordinator.last_exec().sharded);
  EXPECT_EQ(Serialize(serial), Serialize(result.value()));
  EXPECT_EQ(DiffStats(serial.stats, result.value().stats), "");
  EXPECT_EQ(result.value().stats.shards_total, 0);
}

/// A cyclic chain is no scatter shape: the coordinator hands it to the
/// engine, which refuses it instead of walking the chain forever.
TEST(ShardExecTest, CyclicPlanIsRefused) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 4, 8)).ok());
  auto limit = LimitPlan(ScanPlan("t"), 5);
  limit->child = limit;
  ShardExecConfig config;
  config.num_shards = 2;
  ShardCoordinator coordinator(&catalog, config);
  auto result = coordinator.Execute(limit);
  limit->child = nullptr;  // break the ownership cycle
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(coordinator.last_exec().sharded);
}

// ---------------------------------------------------------------------------
// One worker pool
// ---------------------------------------------------------------------------

/// The process's live thread count, from /proc/self/status; -1 when that
/// file is unavailable.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Every shard's slice scan runs on the coordinator engine's one pool: a
/// query contacting all four shards at exec.num_threads = 4, with no
/// injected pool, leaves at most that pool's four workers behind.
TEST(ShardExecTest, OnePoolServesEveryShard) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 16, 64)).ok());
  ShardExecConfig config;
  config.num_shards = 4;
  config.engine.exec.num_threads = 4;
  ShardCoordinator coordinator(&catalog, config);

  const int before = ProcessThreads();
  if (before < 0) GTEST_SKIP() << "/proc/self/status is not readable";
  auto result = coordinator.Execute(ScanPlan("t"));
  const int after = ProcessThreads();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(coordinator.last_exec().shards_contacted, 4u);
  EXPECT_LE(after - before, 4) << "threads before " << before << ", after "
                               << after;
  EXPECT_EQ(Serialize(RunSerial(&catalog, ScanPlan("t"))),
            Serialize(result.value()));
}

/// A sharded query starts no threads of its own: every span of a traced
/// 4-shard query is recorded on the calling thread, except the morsel spans
/// of the pool's workers. With no pool (num_threads = 1) that leaves one
/// thread; with four workers, at most five.
TEST(ShardExecTest, ShardedQueryRunsOnlyOnCallerAndPool) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 16, 64)).ok());
  Trace probe;
  probe.EndSpan(probe.BeginSpan("caller"));
  const uint64_t caller = probe.spans()[0].thread_id;
  const std::string serial = Serialize(RunSerial(&catalog, ScanPlan("t")));

  for (int threads : {1, 4}) {
    ShardExecConfig config;
    config.num_shards = 4;
    config.engine.exec.num_threads = threads;
    ShardCoordinator coordinator(&catalog, config);
    Trace trace;
    ExecuteOptions opts;
    opts.trace = &trace;
    auto result = coordinator.Execute(ScanPlan("t"), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(coordinator.last_exec().shards_contacted, 4u);
    EXPECT_EQ(Serialize(result.value()), serial);

    std::set<uint64_t> ids;
    size_t shard_scans = 0;
    for (const TraceSpan& span : trace.spans()) {
      ids.insert(span.thread_id);
      if (span.name == "shard.scan") ++shard_scans;
      if (threads == 1 || span.name != "scan.morsel") {
        EXPECT_EQ(span.thread_id, caller)
            << span.name << " was recorded off the calling thread";
      }
    }
    EXPECT_EQ(shard_scans, 4u);
    EXPECT_LE(ids.size(), 1u + (threads == 1 ? 0u : 4u))
        << "threads " << threads;
  }
}

/// One partition of the single-column RangedTable schema holding keys
/// first .. first + rows - 1.
MicroPartition KeyPartition(PartitionId id, int64_t first, size_t rows) {
  ColumnVector col(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    col.AppendInt64(first + static_cast<int64_t>(r));
  }
  return MicroPartition(id, {std::move(col)});
}

/// In-place DML (append, replace, delete) keeps the table object, so the
/// coordinator's cached shard map must follow the table's DML version and
/// partition count, not only its identity. A stale map reads ownership past
/// its end after an append, and its stale merged zone maps prune a shard
/// whose replaced partition now matches.
TEST(ShardExecTest, ShardMapFollowsInPlaceDml) {
  for (int threads : {1, 2}) {
    Catalog catalog;
    auto table = RangedTable("t", 8, 10);  // keys 0..79
    ASSERT_TRUE(catalog.RegisterTable(table).ok());
    ShardExecConfig config;
    config.num_shards = 4;
    config.engine.exec.num_threads = threads;
    ShardCoordinator coordinator(&catalog, config);

    auto check = [&](const std::string& step) {
      for (const PlanPtr& plan :
           {ScanPlan("t"), ScanPlan("t", Gt(Col("key"), Lit(int64_t{900}))),
            TopKPlan(ScanPlan("t"), "key", /*descending=*/true, 3)}) {
        QueryResult serial = RunSerial(&catalog, plan);
        auto result = coordinator.Execute(plan);
        const std::string ctx = step + " threads " + std::to_string(threads) +
                                " plan " + plan->Fingerprint();
        ASSERT_TRUE(result.ok()) << ctx << ": "
                                 << result.status().ToString();
        EXPECT_TRUE(coordinator.last_exec().sharded) << ctx;
        EXPECT_EQ(Serialize(serial), Serialize(result.value())) << ctx;
        EXPECT_EQ(DiffStats(serial.stats, result.value().stats), "") << ctx;
      }
    };
    check("initial");
    table->AppendPartition(KeyPartition(8, 80, 10));
    check("after append");
    table->ReplacePartition(0, KeyPartition(0, 1000, 10));
    check("after replace");
    table->DeletePartition(3);
    check("after delete");
  }
}

// ---------------------------------------------------------------------------
// Cancellation fan-out
// ---------------------------------------------------------------------------

TEST(ShardExecTest, CancelledBeforeScatterLoadsNothing) {
  Catalog catalog;
  auto table = RangedTable("t", 8, 10);
  ASSERT_TRUE(catalog.RegisterTable(table).ok());
  ShardExecConfig config;
  config.num_shards = 4;
  ShardCoordinator coordinator(&catalog, config);

  std::atomic<bool> cancel{true};
  table->ResetMeters();
  auto plan = ScanPlan("t");
  ExecuteOptions opts;
  opts.cancel = &cancel;
  auto result = coordinator.Execute(plan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(table->load_count(), 0);
}

/// Cancelling mid-run from another thread must fan out to every in-flight
/// slice scan and surface as Cancelled (or complete, if the race is
/// lost) — never crash, deadlock, or return a partial result as OK.
TEST(ShardExecTest, MidRunCancelFansOutToShards) {
  Catalog catalog;
  auto table = RangedTable("t", 64, 64);
  ASSERT_TRUE(catalog.RegisterTable(table).ok());
  ShardExecConfig config;
  config.num_shards = 4;
  config.engine.exec.num_threads = 2;
  ShardCoordinator coordinator(&catalog, config);
  auto plan = ScanPlan("t");
  QueryResult serial = RunSerial(&catalog, plan);

  for (int round = 0; round < 8; ++round) {
    std::atomic<bool> cancel{false};
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      cancel.store(true, std::memory_order_relaxed);
    });
    ExecuteOptions opts;
    opts.cancel = &cancel;
    auto result = coordinator.Execute(plan, opts);
    canceller.join();
    if (result.ok()) {
      // The query won the race: the result must still be the full answer.
      EXPECT_EQ(Serialize(serial), Serialize(result.value())) << round;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << round;
    }
  }
}

// ---------------------------------------------------------------------------
// DML snapshot atomicity across shards (through the query service)
// ---------------------------------------------------------------------------

/// ReplaceTable concurrent with sharded queries: every query must see ONE
/// table version across all its slice scans — all rows from the old
/// version or all from the new, never a mix — and the shard map must follow
/// the version it reads.
TEST(ShardExecTest, ReplaceTableIsSnapshotAtomicAcrossShards) {
  auto version_table = [](int64_t version) {
    // 8 partitions of 16 rows, every row = the version number.
    std::vector<std::vector<int64_t>> parts(
        8, std::vector<int64_t>(16, version));
    return IntTable("v", "key", parts);
  };
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(version_table(0)).ok());

  service::QueryServiceConfig config;
  config.num_threads = 4;
  config.max_in_flight = 2;
  config.num_shards = 2;
  service::QueryService service(&catalog, config);

  std::atomic<bool> stop{false};
  std::thread dml([&] {
    for (int64_t version = 1; !stop.load(); ++version) {
      ASSERT_TRUE(catalog.ReplaceTable(version_table(version)).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  for (int i = 0; i < 200; ++i) {
    auto result = service.Execute(ScanPlan("v"));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& rows = result.value().rows;
    ASSERT_EQ(rows.size(), 128u) << "query " << i << " saw a partial table";
    for (const auto& row : rows) {
      ASSERT_EQ(row[0].int64_value(), rows[0][0].int64_value())
          << "query " << i << " mixed two table versions";
    }
  }
  stop.store(true);
  dml.join();
}

// ---------------------------------------------------------------------------
// Shard-aware morsel-window budgeting
// ---------------------------------------------------------------------------

/// Regression: the per-query morsel window must divide the service budget
/// by (max_in_flight × num_shards) — a sharded query fans out into up to
/// num_shards concurrent sub-scans, each owning a window. The old divisor
/// (max_in_flight alone) let one sharded query claim num_shards shares.
TEST(ShardExecTest, MorselWindowBudgetDividesByShardFanOut) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 16, 8)).ok());

  service::QueryServiceConfig unsharded;
  unsharded.num_threads = 4;  // default budget 4 * 4 = 16
  unsharded.max_in_flight = 2;
  service::QueryService plain(&catalog, unsharded);
  EXPECT_EQ(plain.per_query_morsel_window(), 8u);

  service::QueryServiceConfig sharded = unsharded;
  sharded.num_shards = 4;
  service::QueryService service(&catalog, sharded);
  EXPECT_EQ(service.per_query_morsel_window(), 2u);

  // An explicit per-engine window still wins over the budget.
  service::QueryServiceConfig pinned = sharded;
  pinned.engine.exec.morsel_window = 5;
  service::QueryService pinned_service(&catalog, pinned);
  EXPECT_EQ(pinned_service.per_query_morsel_window(), 5u);

  // The floor of 2 still applies at extreme fan-out.
  service::QueryServiceConfig floored = unsharded;
  floored.num_shards = 64;
  service::QueryService floored_service(&catalog, floored);
  EXPECT_EQ(floored_service.per_query_morsel_window(), 2u);

  // And the sharded service still answers correctly through the budgeted
  // window (driver routing + coordinator + gather end to end).
  auto plan = ScanPlan("t", Gt(Col("key"), Lit(int64_t{100})));
  QueryResult serial = RunSerial(&catalog, plan);
  auto result = service.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Serialize(serial), Serialize(result.value()));
  EXPECT_EQ(DiffStats(serial.stats, result.value().stats), "");
  EXPECT_GT(result.value().stats.shards_pruned, 0);
}

/// Sanity on the placement policies: every partition owned by exactly one
/// shard, range shards contiguous, hash spreading across shards.
TEST(ShardExecTest, ShardMapPoliciesPartitionTheTable) {
  auto table = RangedTable("t", 12, 5);
  for (ShardPolicy policy : {ShardPolicy::kRange, ShardPolicy::kHash}) {
    ShardMap map = ShardMap::Build(*table, 4, policy);
    std::vector<int> owners(table->num_partitions(), 0);
    size_t total = 0;
    for (size_t s = 0; s < map.num_shards(); ++s) {
      for (PartitionId pid : map.shard_partitions(s)) {
        EXPECT_EQ(map.shard_of(pid), s) << ToString(policy);
        ++owners[pid];
        ++total;
      }
    }
    EXPECT_EQ(total, table->num_partitions()) << ToString(policy);
    for (int count : owners) EXPECT_EQ(count, 1) << ToString(policy);
    if (policy == ShardPolicy::kRange) {
      for (size_t s = 0; s < map.num_shards(); ++s) {
        const auto& pids = map.shard_partitions(s);
        for (size_t i = 1; i < pids.size(); ++i) {
          EXPECT_EQ(pids[i], pids[i - 1] + 1) << "range shard not contiguous";
        }
      }
    }
  }
}

}  // namespace
}  // namespace snowprune
