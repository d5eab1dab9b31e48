/// Inter-query concurrency suite: N client streams submitting mixed query
/// classes through one QueryService must leave every query's rows AND
/// PruningStats byte-identical to a serial solo run of the same query, at
/// every stream count; admission control must bound in-flight queries; and
/// catalog DML churn (table replace between queries) under load must stay
/// snapshot-atomic per query. Runs under ThreadSanitizer in CI (build-tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "exec/plan.h"
#include "expr/builder.h"
#include "service/query_service.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "workload/query_gen.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using service::QueryService;
using service::QueryServiceConfig;
using service::ServiceStats;
using testing_util::DiffStats;
using testing_util::Serialize;
using workload::GeneratedQuery;
using workload::ProductionModel;
using workload::QueryGenerator;

std::shared_ptr<Table> Synthetic(const char* name, workload::Layout layout,
                                 size_t partitions, size_t rows,
                                 uint64_t seed) {
  workload::TableGenConfig cfg;
  cfg.name = name;
  cfg.layout = layout;
  cfg.num_partitions = partitions;
  cfg.rows_per_partition = rows;
  cfg.null_fraction = 0.05;
  cfg.num_categories = 20;
  cfg.seed = seed;
  return workload::SyntheticTable(cfg);
}

/// A MULTI-partition table (16-row partitions) whose rows all carry
/// generation `gen` in the `g` column, with a generation-dependent row
/// count — so a scan proves which catalog snapshot it ran against, and a
/// non-atomic replacement (e.g. re-resolving the table name mid-scan)
/// would surface as torn generations across the scan's partitions.
std::shared_ptr<Table> ChurnTable(int64_t gen) {
  Schema schema({Field{"g", DataType::kInt64, false}});
  TableBuilder builder("churn", schema, /*target_partition_rows=*/16);
  const int64_t rows = 100 + gen;
  for (int64_t i = 0; i < rows; ++i) {
    Status s = builder.AppendRow({Value(gen)});
    if (!s.ok()) std::abort();
  }
  return builder.Finish();
}

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .RegisterTable(Synthetic("fact", workload::Layout::kClustered,
                                             40, 120, 77))
                    .ok());
    ASSERT_TRUE(catalog_
                    .RegisterTable(Synthetic("probe2", workload::Layout::kSorted,
                                             24, 150, 78))
                    .ok());
    ASSERT_TRUE(catalog_
                    .RegisterTable(Synthetic("dim", workload::Layout::kRandom, 2,
                                             400, 79))
                    .ok());
  }

  QueryGenerator MakeGenerator(uint64_t seed) {
    QueryGenerator::Config gcfg;
    gcfg.seed = seed;
    gcfg.shape_pool_size = 64;
    return QueryGenerator(&catalog_, {"fact", "probe2"}, {"dim"},
                          ProductionModel(), gcfg);
  }

  /// Solo serial run: fresh single-threaded engine, no pool, no cache.
  Result<QueryResult> RunSolo(const PlanPtr& plan) {
    EngineConfig config;
    config.exec.num_threads = 1;
    Engine engine(&catalog_, config);
    return engine.Execute(plan);
  }

  Catalog catalog_;
};

// ---------------------------------------------------------------------------
// The correctness bar: byte-identity to solo serial runs at every stream
// count. Each stream replays a reproducible query sequence (generator seeded
// per stream); the reference pass replays the same seeds solo and serial.
// ---------------------------------------------------------------------------

TEST_F(ServiceConcurrencyTest, MixedClassesByteIdenticalAcrossStreamCounts) {
  constexpr size_t kQueriesPerStream = 30;

  for (size_t num_streams : {size_t{1}, size_t{2}, size_t{4}}) {
    // Reference pass: same seeds, solo serial engine.
    std::vector<std::vector<std::string>> ref_rows(num_streams);
    std::vector<std::vector<PruningStats>> ref_stats(num_streams);
    std::vector<std::vector<bool>> ref_ok(num_streams);
    for (size_t s = 0; s < num_streams; ++s) {
      QueryGenerator generator = MakeGenerator(1000 + s);
      for (size_t i = 0; i < kQueriesPerStream; ++i) {
        GeneratedQuery q = generator.Generate();
        auto solo = RunSolo(q.plan);
        ref_ok[s].push_back(solo.ok());
        ref_rows[s].push_back(solo.ok() ? Serialize(solo.value()) : "");
        ref_stats[s].push_back(solo.ok() ? solo.value().stats
                                         : PruningStats());
      }
    }

    QueryServiceConfig scfg;
    scfg.num_threads = 4;
    scfg.max_in_flight = num_streams;
    QueryService service(&catalog_, scfg);

    std::vector<std::thread> streams;
    for (size_t s = 0; s < num_streams; ++s) {
      streams.emplace_back([&, s] {
        QueryGenerator generator = MakeGenerator(1000 + s);
        for (size_t i = 0; i < kQueriesPerStream; ++i) {
          GeneratedQuery q = generator.Generate();
          auto served = service.Execute(std::move(q.plan));
          ASSERT_EQ(served.ok(), ref_ok[s][i])
              << "stream " << s << " query " << i;
          if (!served.ok()) continue;
          EXPECT_EQ(Serialize(served.value()), ref_rows[s][i])
              << "rows diverged from solo serial: stream " << s << " query "
              << i << " at " << num_streams << " streams";
          EXPECT_EQ(DiffStats(served.value().stats, ref_stats[s][i]), "")
              << "stats diverged from solo serial: stream " << s << " query "
              << i << " at " << num_streams << " streams";
        }
      });
    }
    for (auto& t : streams) t.join();

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<int64_t>(num_streams * kQueriesPerStream));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.failed, 0);
    // Every completion is exactly one of ok/failed/cancelled/deadline.
    EXPECT_EQ(stats.completed, stats.ok + stats.failed + stats.cancelled +
                                   stats.deadline_exceeded);
    EXPECT_LE(stats.peak_in_flight, static_cast<int64_t>(num_streams));
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST_F(ServiceConcurrencyTest, AdmissionBoundsInFlightQueries) {
  QueryServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.max_in_flight = 2;
  QueryService service(&catalog_, scfg);
  ASSERT_EQ(service.pool_width(), 2u);

  constexpr int kQueries = 32;
  std::vector<QueryService::Handle> handles;
  for (int i = 0; i < kQueries; ++i) {
    auto submitted = service.Submit(ScanPlan("fact"));
    ASSERT_TRUE(submitted.ok());
    handles.push_back(std::move(submitted).value());
  }
  // Drain's contract: once it returns, every admitted query's handle
  // reports done and the admission queue is empty.
  service.Drain();
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.in_flight(), 0u);
  for (auto& h : handles) EXPECT_TRUE(h.done());
  int64_t total_rows = 0;
  for (auto& h : handles) {
    auto result = h.Await();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    total_rows += static_cast<int64_t>(result.value().rows.size());
  }
  EXPECT_EQ(total_rows, kQueries * 40 * 120);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kQueries);
  EXPECT_EQ(stats.completed, kQueries);
  // The admission bound is a hard ceiling; with a deep backlog and two live
  // drivers it is also reached.
  EXPECT_LE(stats.peak_in_flight, 2);
  EXPECT_GE(stats.peak_in_flight, 2);
  EXPECT_GE(stats.peak_queue_depth, 1);
  EXPECT_EQ(stats.completed, stats.ok + stats.failed + stats.cancelled +
                                 stats.deadline_exceeded);
}

TEST_F(ServiceConcurrencyTest, BoundedQueueRejectsWithResourceExhausted) {
  QueryServiceConfig scfg;
  scfg.num_threads = 1;
  scfg.max_in_flight = 1;
  scfg.queue_capacity = 1;
  // force_parallel puts every scan on the service's one worker even at
  // width 1, so a latch task holding that worker keeps every admitted
  // query from finishing until the latch is released.
  scfg.engine.exec.force_parallel = true;
  QueryService service(&catalog_, scfg);

  Mutex latch_mutex;
  CondVar latch_cv;
  bool released = false;
  service.scan_pool()->Submit([&] {
    MutexLock lock(&latch_mutex);
    while (!released) latch_cv.Wait(&latch_mutex);
  });

  // No query can complete while the latch holds, and at most one query
  // executes and one queues, so at least one of three submits must bounce.
  std::vector<QueryService::Handle> accepted;
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    auto submitted = service.Submit(ScanPlan("fact"));
    if (submitted.ok()) {
      accepted.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  {
    MutexLock lock(&latch_mutex);
    released = true;
  }
  latch_cv.NotifyAll();
  EXPECT_GE(rejected, 1);
  for (auto& h : accepted) {
    auto result = h.Await();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(service.stats().rejected, rejected);
}

TEST_F(ServiceConcurrencyTest, HandleSemantics) {
  QueryService::Handle empty;
  EXPECT_FALSE(empty.done());
  EXPECT_FALSE(empty.Await().ok());

  QueryServiceConfig scfg;
  scfg.num_threads = 1;
  QueryService service(&catalog_, scfg);
  auto submitted = service.Submit(ScanPlan("fact"));
  ASSERT_TRUE(submitted.ok());
  QueryService::Handle handle = submitted.value();
  auto first = handle.Await();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(handle.done());
  EXPECT_GE(handle.queue_ms(), 0.0);
  auto second = handle.Await();  // single-shot: the result moved out
  EXPECT_FALSE(second.ok());
}

TEST_F(ServiceConcurrencyTest, ShutdownFailsQueuedQueriesAndNeverHangs) {
  std::vector<QueryService::Handle> handles;
  {
    QueryServiceConfig scfg;
    scfg.num_threads = 1;
    scfg.max_in_flight = 1;
    QueryService service(&catalog_, scfg);
    for (int i = 0; i < 8; ++i) {
      auto submitted = service.Submit(ScanPlan("fact"));
      ASSERT_TRUE(submitted.ok());
      handles.push_back(std::move(submitted).value());
    }
    // Let the driver pick up at least one query so the destructor's
    // "executing queries finish" path is actually exercised.
    while (service.in_flight() == 0 && service.stats().completed == 0) {
      std::this_thread::yield();
    }
  }  // destructor: executing queries finish, queued ones fail Unavailable
  int ok = 0, unavailable = 0;
  for (auto& h : handles) {
    auto result = h.Await();
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, 8);
  EXPECT_GE(ok, 1);  // the in-flight query completes, never cancelled
}

/// The per-query morsel window is an equal share of a budget of 4 morsels
/// per pool worker, floored at 2; an explicit engine window wins.
TEST_F(ServiceConcurrencyTest, MorselWindowBudgetSplitsAcrossAdmitted) {
  QueryServiceConfig scfg;
  scfg.num_threads = 8;  // budget 4 * 8 = 32
  scfg.max_in_flight = 4;
  QueryService service(&catalog_, scfg);
  EXPECT_EQ(service.per_query_morsel_window(), 8u);  // 32 / 4

  QueryServiceConfig tight = scfg;
  tight.num_threads = 1;  // budget 4, share 1: the floor engages
  QueryService tight_service(&catalog_, tight);
  EXPECT_EQ(tight_service.per_query_morsel_window(), 2u);

  // Explicit per-query window wins over the budget.
  QueryServiceConfig explicit_cfg = scfg;
  explicit_cfg.engine.exec.morsel_window = 5;
  QueryService explicit_service(&catalog_, explicit_cfg);
  EXPECT_EQ(explicit_service.per_query_morsel_window(), 5u);
}

// ---------------------------------------------------------------------------
// DML churn under load: catalog table replacement is snapshot-atomic per
// query, and load on other tables stays byte-identical throughout.
// ---------------------------------------------------------------------------

TEST_F(ServiceConcurrencyTest, TableReplaceUnderLoadIsSnapshotAtomic) {
  ASSERT_TRUE(catalog_.RegisterTable(ChurnTable(0)).ok());

  auto fact_reference = RunSolo(ScanPlan("fact"));
  ASSERT_TRUE(fact_reference.ok());
  const std::string fact_rows = Serialize(fact_reference.value());

  QueryServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.max_in_flight = 3;
  QueryService service(&catalog_, scfg);

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    // CREATE OR REPLACE churn generation g (cycled to keep builds small);
    // in-flight readers keep their snapshot alive via the catalog's
    // shared_ptr handoff.
    for (int64_t iter = 0; !stop.load(); ++iter) {
      ASSERT_TRUE(catalog_.ReplaceTable(ChurnTable(1 + iter % 50)).ok());
      std::this_thread::yield();
    }
  });

  std::thread fact_load([&] {
    for (int i = 0; i < 20; ++i) {
      auto result = service.Execute(ScanPlan("fact"));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(Serialize(result.value()), fact_rows)
          << "stable-table query diverged during DML churn";
    }
  });

  for (int i = 0; i < 40; ++i) {
    // Alternate plain scans and top-k plans: the latter exercise the
    // engine's plan analysis (TraceColumnToScan) against the snapshot —
    // pre-snapshot, a replacement landing between the analysis' and the
    // scan compile's name lookups could hand one query two table versions.
    const bool topk = (i % 2) == 1;
    auto result = service.Execute(
        topk ? TopKPlan(ScanPlan("churn"), "g", /*descending=*/true, 5)
             : ScanPlan("churn"));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto& rows = result.value().rows;
    ASSERT_FALSE(rows.empty());
    // Atomic snapshot: one generation only, and exactly that generation's
    // row count — no torn reads across a replacement.
    const int64_t gen = rows[0][0].int64_value();
    for (const auto& row : rows) {
      ASSERT_EQ(row[0].int64_value(), gen) << "torn generations in one scan";
    }
    EXPECT_EQ(static_cast<int64_t>(rows.size()), topk ? 5 : 100 + gen);
  }

  fact_load.join();
  stop.store(true);
  churner.join();
}

TEST_F(ServiceConcurrencyTest, ReplaceTableInvalidatesPredicateCache) {
  ASSERT_TRUE(catalog_.RegisterTable(
      Synthetic("vtab", workload::Layout::kClustered, 20, 100, 500)).ok());
  auto topk_plan = [] {
    return TopKPlan(ScanPlan("vtab"), "key", /*descending=*/true, 8);
  };

  PredicateCache cache;
  QueryServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.engine.predicate_cache = &cache;
  QueryService service(&catalog_, scfg);

  // Populate, then confirm a repeat hits the cache.
  ASSERT_TRUE(service.Execute(topk_plan()).ok());
  auto repeat = service.Execute(topk_plan());
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().predicate_cache_hit);

  // CREATE OR REPLACE with different data: the cached contributing
  // partitions describe the old version and must not restrict scans of the
  // new one — the query must return the new version's true top-k.
  ASSERT_TRUE(catalog_.ReplaceTable(
      Synthetic("vtab", workload::Layout::kRandom, 20, 100, 501)).ok());
  auto fresh_reference = RunSolo(topk_plan());
  ASSERT_TRUE(fresh_reference.ok());
  auto after_replace = service.Execute(topk_plan());
  ASSERT_TRUE(after_replace.ok());
  EXPECT_FALSE(after_replace.value().predicate_cache_hit)
      << "stale cache entry served across a table replacement";
  EXPECT_EQ(Serialize(after_replace.value()),
            Serialize(fresh_reference.value()));
}

// ---------------------------------------------------------------------------
// Shared predicate cache across concurrent identical queries: rows stay
// byte-identical to solo runs while the cache amplifies hits and coalesces
// concurrent populations.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Per-query cancellation (PR 5): a cancelled queued query completes with
// Status::Cancelled without executing; a cancelled running query aborts and
// releases its pool share; the service keeps serving afterwards.
// ---------------------------------------------------------------------------

TEST_F(ServiceConcurrencyTest, CancelQueuedQueryCompletesWithCancelled) {
  QueryServiceConfig scfg;
  scfg.num_threads = 1;
  scfg.max_in_flight = 1;  // one driver: strict FIFO behind the first query
  scfg.engine.exec.force_parallel = true;
  scfg.engine.exec.morsel_min_rows = 0;  // one morsel per partition
  QueryService service(&catalog_, scfg);

  auto filler = [] {
    // A full sort of the 40-partition table, one morsel per partition on a
    // width-1 forced-parallel pool: several milliseconds of work each.
    return SortPlan(ScanPlan("fact"), "val", /*descending=*/true);
  };
  // Four fillers occupy the single driver long enough that Cancel() — one
  // call away on this thread — always lands while C is still queued.
  std::vector<Result<QueryService::Handle>> fillers;
  for (int i = 0; i < 4; ++i) fillers.push_back(service.Submit(filler()));
  auto c = service.Submit(filler());
  for (auto& f : fillers) ASSERT_TRUE(f.ok());
  ASSERT_TRUE(c.ok());
  c.value().Cancel();

  for (auto& f : fillers) {
    auto r = f.value().Await();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  auto rc = c.value().Await();
  ASSERT_FALSE(rc.ok());
  EXPECT_EQ(rc.status().code(), StatusCode::kCancelled);

  service.Drain();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.ok, 4);
  EXPECT_EQ(stats.completed, stats.ok + stats.failed + stats.cancelled +
                                 stats.deadline_exceeded);

  // The service still serves: a fresh query after the cancellation runs OK.
  auto after = service.Execute(filler());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(ServiceConcurrencyTest, CancelRunningQueryReleasesServiceForOthers) {
  QueryServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.max_in_flight = 2;
  scfg.engine.exec.force_parallel = true;
  scfg.engine.exec.morsel_min_rows = 0;  // one partition per morsel
  QueryService service(&catalog_, scfg);

  auto victim = service.Submit(
      SortPlan(ScanPlan("fact"), "val", /*descending=*/true));
  ASSERT_TRUE(victim.ok());
  victim.value().Cancel();
  auto rv = victim.value().Await();
  // Depending on timing the query may have finished before the flag landed;
  // either way the handle resolves and the service stays healthy.
  if (!rv.ok()) EXPECT_EQ(rv.status().code(), StatusCode::kCancelled);

  auto after = service.Execute(
      TopKPlan(ScanPlan("probe2"), "key", /*descending=*/true, 10));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().rows.empty());
  service.Drain();
  EXPECT_EQ(service.stats().completed, 2);
}

// ---------------------------------------------------------------------------
// ThreadPool::queue_depth was sampled but never surfaced per service — the
// high-water gauge must report the shared pool's deepest backlog.
// ---------------------------------------------------------------------------

TEST_F(ServiceConcurrencyTest, PoolQueueDepthHighWaterIsSurfaced) {
  QueryServiceConfig scfg;
  scfg.num_threads = 1;  // one worker: submitted morsels must queue
  scfg.max_in_flight = 2;
  scfg.engine.exec.force_parallel = true;
  scfg.engine.exec.morsel_min_rows = 0;  // 40 partitions → 40 morsel tasks
  QueryService service(&catalog_, scfg);

  // Before any query the gauge reads zero.
  EXPECT_EQ(service.stats().peak_pool_queue_depth, 0);

  auto result = service.Execute(AggregatePlan(
      ScanPlan("fact"), {"cat"}, {AggPlanSpec{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every morsel passed through the pool queue (ThreadPool::Submit updates
  // the high-water after the push, so the first submission already counts).
  ServiceStats stats = service.stats();
  EXPECT_GE(stats.peak_pool_queue_depth, 1);
  // Bounded by what this workload could ever enqueue: the scan's morsels,
  // far below any runaway figure.
  EXPECT_LE(stats.peak_pool_queue_depth, 200);
}

TEST_F(ServiceConcurrencyTest, SharedPredicateCacheKeepsRowsIdentical) {
  auto topk_plan = [] {
    return TopKPlan(ScanPlan("fact"), "key", /*descending=*/true, 10);
  };
  auto reference = RunSolo(topk_plan());
  ASSERT_TRUE(reference.ok());
  const std::string expected_rows = Serialize(reference.value());

  PredicateCache cache;
  QueryServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.max_in_flight = 4;
  scfg.engine.predicate_cache = &cache;
  QueryService service(&catalog_, scfg);

  constexpr int kStreams = 4;
  constexpr int kRepeats = 8;
  std::vector<std::thread> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.emplace_back([&] {
      for (int i = 0; i < kRepeats; ++i) {
        auto result = service.Execute(topk_plan());
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(Serialize(result.value()), expected_rows)
            << "cache-restricted scan changed the top-k result";
      }
    });
  }
  for (auto& t : streams) t.join();

  PredicateCache::Counters counters = cache.snapshot();
  EXPECT_EQ(counters.size, 1u);  // one fingerprint
  // Every execution after the first population is a hit; concurrent racers
  // either hit, wait coalesced, or (rarely) take over an abandoned ticket.
  EXPECT_GE(counters.hits, kStreams * kRepeats / 2);
  EXPECT_GE(counters.misses, 1);
}

}  // namespace
}  // namespace snowprune
