/// Fault-tolerance suite: every failure path is a tested path. Covers the
/// failpoint firing semantics (once-after-K / every-Nth / probability, all
/// deterministic under a seed), retry backoff determinism, per-query
/// deadlines (queued sheds never execute; running queries stop on the
/// cancellation plumbing), retry byte-identity across shard × thread
/// configurations, a traced retry's spans, budget exhaustion surfacing the
/// underlying error, the
/// failpoint wiring self-tests CI depends on (a disarmed registry never
/// fires; every armed reachable site trips during a storm), and a
/// TSan-registered injection storm asserting the service leaks no in-flight
/// or pool slots. Runs under ThreadSanitizer in CI (build-tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/engine.h"
#include "exec/plan.h"
#include "service/query_service.h"
#include "shard/coordinator.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using service::QueryService;
using service::QueryServiceConfig;
using service::ServiceStats;
using shard::RetryBackoffUs;
using shard::RetryPolicy;
using shard::ShardCoordinator;
using shard::ShardExecConfig;
using testing_util::DiffStats;
using testing_util::Serialize;

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

/// All six production failpoint sites, in one place so the wiring
/// self-tests and the storm arm exactly what ships.
const char* const kAllSites[] = {
    "scan.partition_load",   "pool.dispatch",          "predcache.populate",
    "shard.scatter_launch",  "shard.scatter_complete", "shard.gather_replay",
};

/// Registers (without arming) every production site so tests can Find and
/// arm them before any query has executed the macro's registration path.
void RegisterAllSites() {
  for (const char* site : kAllSites) {
    FailPointRegistry::Instance().Register(site);
  }
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().DisarmAll();
    ASSERT_TRUE(catalog_
                    .RegisterTable(Synthetic("fact", workload::Layout::kClustered,
                                             40, 120, 77))
                    .ok());
    ASSERT_TRUE(catalog_
                    .RegisterTable(Synthetic("dim", workload::Layout::kSorted, 8,
                                             200, 78))
                    .ok());
  }

  void TearDown() override { FailPointRegistry::Instance().DisarmAll(); }

  /// Solo serial reference run: fresh single-threaded engine.
  Result<QueryResult> RunSolo(const PlanPtr& plan) {
    EngineConfig config;
    config.exec.num_threads = 1;
    Engine engine(&catalog_, config);
    return engine.Execute(plan);
  }

  Catalog catalog_;
};

// ---------------------------------------------------------------------------
// FailPoint firing semantics
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, FailPointOnceAfterKFiresExactlyOnce) {
  FailPoint* fp = FailPointRegistry::Instance().Register("test.once");
  fp->ArmOnceAfterK(3);
  std::vector<bool> fires;
  for (int i = 0; i < 10; ++i) fires.push_back(fp->ShouldFire());
  EXPECT_EQ(fires, (std::vector<bool>{false, false, false, true, false, false,
                                      false, false, false, false}));
  EXPECT_EQ(fp->trips(), 1u);
  EXPECT_EQ(fp->evaluations(), 10u);
  fp->Disarm();
  EXPECT_FALSE(fp->ShouldFire());
}

TEST_F(FaultToleranceTest, FailPointEveryNthFiresOnSchedule) {
  FailPoint* fp = FailPointRegistry::Instance().Register("test.nth");
  fp->ArmEveryNth(3);
  std::vector<bool> fires;
  for (int i = 0; i < 9; ++i) fires.push_back(fp->ShouldFire());
  EXPECT_EQ(fires, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(fp->trips(), 3u);
  // Re-arming resets the sequence: the next fire is three evaluations away.
  fp->ArmEveryNth(3);
  EXPECT_FALSE(fp->ShouldFire());
  EXPECT_FALSE(fp->ShouldFire());
  EXPECT_TRUE(fp->ShouldFire());
}

TEST_F(FaultToleranceTest, FailPointProbabilityIsSeededDeterministic) {
  FailPoint* fp = FailPointRegistry::Instance().Register("test.prob");

  // p = 0 never fires; p = 1 always fires (the bit-pattern comparison is
  // exact at both endpoints).
  fp->ArmProbability(0.0, /*seed=*/7);
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(fp->ShouldFire());
  fp->ArmProbability(1.0, /*seed=*/7);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(fp->ShouldFire());

  // Same (p, seed) → the exact same fire pattern on replay.
  fp->ArmProbability(0.5, /*seed=*/7);
  std::vector<bool> first;
  for (int i = 0; i < 500; ++i) first.push_back(fp->ShouldFire());
  fp->ArmProbability(0.5, /*seed=*/7);
  std::vector<bool> second;
  for (int i = 0; i < 500; ++i) second.push_back(fp->ShouldFire());
  EXPECT_EQ(first, second);

  // The empirical rate lands near p (splitmix64 is a decent mixer; a 500-
  // draw binomial at p=0.5 stays within ±0.15 with overwhelming margin).
  const uint64_t trips = fp->trips();
  EXPECT_GT(trips, 175u);
  EXPECT_LT(trips, 325u);

  // A different seed draws a different pattern.
  fp->ArmProbability(0.5, /*seed=*/8);
  std::vector<bool> other;
  for (int i = 0; i < 500; ++i) other.push_back(fp->ShouldFire());
  EXPECT_NE(first, other);
}

TEST_F(FaultToleranceTest, InjectedFaultIsRetryable) {
  Status s = InjectedFault("test.site");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryable(s.code()));
  EXPECT_FALSE(s.message().empty());
  // The deadline and cancellation outcomes are terminal by design: retrying
  // past a deadline or a user cancel would defeat both.
  EXPECT_FALSE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
}

// ---------------------------------------------------------------------------
// Retry backoff determinism
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, RetryBackoffIsDeterministicCappedExponential) {
  RetryPolicy policy;
  policy.base_backoff_us = 100;
  policy.max_backoff_us = 1000;
  policy.jitter_seed = 42;

  std::vector<int64_t> first, second;
  for (int r = 1; r <= 8; ++r) first.push_back(RetryBackoffUs(policy, r));
  for (int r = 1; r <= 8; ++r) second.push_back(RetryBackoffUs(policy, r));
  EXPECT_EQ(first, second) << "backoff schedule must be a pure function";

  // Jitter is ±25% around the capped exponential: retry r's uncapped base
  // is base << (r-1), capped at max.
  for (int r = 1; r <= 8; ++r) {
    int64_t base = policy.base_backoff_us;
    for (int i = 1; i < r && base < policy.max_backoff_us; ++i) base *= 2;
    if (base > policy.max_backoff_us) base = policy.max_backoff_us;
    EXPECT_GE(first[r - 1], base * 3 / 4) << "retry " << r;
    EXPECT_LE(first[r - 1], base * 5 / 4) << "retry " << r;
  }

  // A different jitter seed perturbs the schedule (same envelope).
  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 43;
  std::vector<int64_t> other;
  for (int r = 1; r <= 8; ++r) other.push_back(RetryBackoffUs(reseeded, r));
  EXPECT_NE(first, other);
}

// ---------------------------------------------------------------------------
// Per-query deadlines
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, ExpiredQueuedQueriesAreShedWithoutExecuting) {
  QueryServiceConfig scfg;
  scfg.num_threads = 1;
  scfg.max_in_flight = 1;
  // Already expired at Submit: every query sheds at (or before) dequeue.
  scfg.default_deadline = std::chrono::nanoseconds(1);
  QueryService service(&catalog_, scfg);

  constexpr int kQueries = 8;
  std::vector<QueryService::Handle> handles;
  for (int i = 0; i < kQueries; ++i) {
    auto submitted = service.Submit(ScanPlan("fact"));
    ASSERT_TRUE(submitted.ok());
    handles.push_back(std::move(submitted).value());
  }
  for (auto& h : handles) {
    auto result = h.Await();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(result.status().message().empty());
  }
  service.Drain();

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kQueries);
  EXPECT_EQ(stats.deadline_exceeded, kQueries);
  EXPECT_EQ(stats.shed_expired, kQueries)
      << "an already-expired queued query must never start executing";
  EXPECT_EQ(stats.ok, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.completed,
            stats.ok + stats.failed + stats.cancelled + stats.deadline_exceeded);
  // Shed queries consume zero pool share: no execution latency samples.
  EXPECT_EQ(stats.exec_ms.count(), 0u);
  EXPECT_EQ(stats.queue_wait_ms.count(), static_cast<size_t>(kQueries));
}

TEST_F(FaultToleranceTest, RunningQueryDeadlineStopsExecutionCleanly) {
  // Entry check: a deadline already in the past never starts the query.
  Engine engine(&catalog_, EngineConfig());
  ExecuteOptions expired;
  expired.deadline_ns = SteadyNowNs() - 1;
  auto at_entry = engine.Execute(ScanPlan("fact"), expired);
  ASSERT_FALSE(at_entry.ok());
  EXPECT_EQ(at_entry.status().code(), StatusCode::kDeadlineExceeded);

  // Mid-execution: one forced-parallel worker grinding 40 one-partition
  // morsels through a sort takes several milliseconds; a 200µs deadline
  // expires during execution (or, worst case, before entry — either way the
  // status is kDeadlineExceeded and nothing hangs or leaks).
  EngineConfig slow;
  slow.exec.num_threads = 1;
  slow.exec.force_parallel = true;
  slow.exec.morsel_min_rows = 0;
  Engine slow_engine(&catalog_, slow);
  ExecuteOptions opts;
  opts.deadline_ns = SteadyNowNs() + 200 * 1000;
  auto mid = slow_engine.Execute(
      SortPlan(ScanPlan("fact"), "val", /*descending=*/true), opts);
  ASSERT_FALSE(mid.ok());
  EXPECT_EQ(mid.status().code(), StatusCode::kDeadlineExceeded);

  // The engine (and its pool) stays healthy: the same query without a
  // deadline matches the solo serial reference.
  auto reference = RunSolo(SortPlan(ScanPlan("fact"), "val", true));
  ASSERT_TRUE(reference.ok());
  auto after = slow_engine.Execute(SortPlan(ScanPlan("fact"), "val", true));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Serialize(after.value()), Serialize(reference.value()));
}

// ---------------------------------------------------------------------------
// Retrying scatter-gather
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, RetriedShardIsByteIdenticalAcrossConfigs) {
  RegisterAllSites();
  auto plan = [] {
    return TopKPlan(ScanPlan("fact"), "key", /*descending=*/true, 25);
  };
  auto reference = RunSolo(plan());
  ASSERT_TRUE(reference.ok());
  const std::string ref_rows = Serialize(reference.value());

  for (size_t shards : {size_t{2}, size_t{4}}) {
    for (int threads : {1, 4}) {
      for (const char* site : {"shard.scatter_launch", "scan.partition_load",
                               "shard.scatter_complete"}) {
        ShardExecConfig cfg;
        cfg.num_shards = shards;
        cfg.engine.exec.num_threads = threads;
        ShardCoordinator coordinator(&catalog_, cfg);

        // The first evaluation fires: exactly one shard's slice scan fails
        // once (at launch, at a partition load in the middle of the scan,
        // or by poisoning its completed answer) and is retried from a fresh
        // scan of the same snapshot and slice.
        FailPoint* fp = FailPointRegistry::Instance().Find(site);
        ASSERT_NE(fp, nullptr);
        fp->ArmOnceAfterK(0);

        auto result = coordinator.Execute(plan());
        fp->Disarm();
        ASSERT_TRUE(result.ok())
            << site << " shards=" << shards << " threads=" << threads << ": "
            << result.status().ToString();
        EXPECT_TRUE(coordinator.last_exec().sharded);
        EXPECT_GE(coordinator.last_exec().retries, 1)
            << site << ": the injected fault must have forced a retry";
        EXPECT_EQ(result.value().shard_retries,
                  coordinator.last_exec().retries);
        EXPECT_EQ(Serialize(result.value()), ref_rows)
            << "retried run diverged: " << site << " shards=" << shards
            << " threads=" << threads;
        EXPECT_EQ(DiffStats(result.value().stats, reference.value().stats), "")
            << "retried stats diverged: " << site << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

/// A traced sharded query that absorbs one launch fault: the retry shows up
/// under the scatter span as one shard.retry span carrying its attempt,
/// backoff and error, next to one shard.scan span per contacted shard (each
/// holding that shard's scan.morsel spans), and tracing changes nothing in
/// the answer.
TEST_F(FaultToleranceTest, TracedRetryIsRecordedUnderScatter) {
  RegisterAllSites();
  ShardExecConfig cfg;
  cfg.num_shards = 4;
  cfg.engine.exec.num_threads = 2;
  ShardCoordinator coordinator(&catalog_, cfg);
  auto untraced = coordinator.Execute(ScanPlan("fact"));
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();

  FailPoint* fp = FailPointRegistry::Instance().Find("shard.scatter_launch");
  ASSERT_NE(fp, nullptr);
  fp->ArmOnceAfterK(0);
  Trace trace;
  ExecuteOptions opts;
  opts.trace = &trace;
  auto traced = coordinator.Execute(ScanPlan("fact"), opts);
  fp->Disarm();
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  const ShardCoordinator::ExecInfo& info = coordinator.last_exec();
  ASSERT_TRUE(info.sharded);
  EXPECT_EQ(info.retries, 1);
  EXPECT_EQ(info.shards_contacted, 4u);

  uint32_t scatter = 0;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "scatter") scatter = span.id;
  }
  ASSERT_NE(scatter, 0u);
  size_t retries = 0, shard_scans = 0, morsels = 0;
  std::vector<uint32_t> shard_scan_ids;
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "shard.scan" && span.parent == scatter) {
      ++shard_scans;
      shard_scan_ids.push_back(span.id);
    }
    if (span.name != "shard.retry" || span.parent != scatter) continue;
    ++retries;
    std::vector<std::string> keys;
    for (const TraceAnnotation& a : span.annotations) keys.push_back(a.key);
    EXPECT_EQ(keys, (std::vector<std::string>{"attempt", "backoff_us",
                                              "error"}));
    EXPECT_EQ(span.annotations[0].int_value, 1);
    EXPECT_EQ(span.annotations[1].int_value,
              RetryBackoffUs(cfg.retry, /*retry=*/1));
    EXPECT_NE(span.annotations[2].str_value.find("injected fault"),
              std::string::npos);
  }
  for (const TraceSpan& span : trace.spans()) {
    if (span.name == "scan.morsel") {
      ++morsels;
      EXPECT_NE(std::find(shard_scan_ids.begin(), shard_scan_ids.end(),
                          span.parent),
                shard_scan_ids.end())
          << "a morsel span outside every shard.scan span";
    }
  }
  EXPECT_EQ(retries, 1u);
  EXPECT_EQ(shard_scans, info.shards_contacted);
  EXPECT_GT(morsels, 0u);

  EXPECT_EQ(Serialize(traced.value()), Serialize(untraced.value()));
  EXPECT_EQ(DiffStats(traced.value().stats, untraced.value().stats), "");
}

TEST_F(FaultToleranceTest, RetryExhaustionSurfacesUnderlyingError) {
  RegisterAllSites();
  ShardExecConfig cfg;
  cfg.num_shards = 2;
  cfg.engine.exec.num_threads = 1;
  cfg.retry.max_attempts = 3;
  cfg.retry.base_backoff_us = 10;  // keep the doomed retries fast
  cfg.retry.max_backoff_us = 50;
  ShardCoordinator coordinator(&catalog_, cfg);

  FailPoint* fp = FailPointRegistry::Instance().Find("shard.scatter_launch");
  ASSERT_NE(fp, nullptr);
  fp->ArmProbability(1.0);  // every attempt fails: the budget must give up

  Counter* exhausted =
      MetricsRegistry::Instance().GetCounter("shard.retry_exhausted");
  const int64_t exhausted_before = exhausted->Value();

  auto result = coordinator.Execute(ScanPlan("fact"));
  fp->Disarm();
  ASSERT_FALSE(result.ok());
  // The underlying error surfaces — not a generic "retries exhausted".
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("injected fault"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_GT(exhausted->Value(), exhausted_before);

  // The coordinator recovers once the fault clears — and matches serial.
  auto reference = RunSolo(ScanPlan("fact"));
  ASSERT_TRUE(reference.ok());
  auto after = coordinator.Execute(ScanPlan("fact"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Serialize(after.value()), Serialize(reference.value()));
}

TEST_F(FaultToleranceTest, EngineSurfacesInjectedScanFaultCleanly) {
  RegisterAllSites();
  auto reference = RunSolo(ScanPlan("fact"));
  ASSERT_TRUE(reference.ok());

  for (int threads : {1, 4}) {
    EngineConfig config;
    config.exec.num_threads = threads;
    Engine engine(&catalog_, config);

    FailPoint* fp = FailPointRegistry::Instance().Find("scan.partition_load");
    ASSERT_NE(fp, nullptr);
    fp->ArmOnceAfterK(0);
    auto faulted = engine.Execute(ScanPlan("fact"));
    fp->Disarm();
    ASSERT_FALSE(faulted.ok()) << "threads=" << threads;
    EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
    EXPECT_FALSE(faulted.status().message().empty());

    // Same engine, fault cleared: byte-identical to the serial reference.
    auto after = engine.Execute(ScanPlan("fact"));
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(Serialize(after.value()), Serialize(reference.value()));
  }
}

// ---------------------------------------------------------------------------
// Failpoint wiring self-tests (CI gates on these)
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, DisarmedRegistryNeverFiresDuringWorkload) {
  FailPointRegistry::Instance().DisarmAll();
  const uint64_t trips_before = FailPointRegistry::Instance().TotalTrips();

  // Drive every site's code path with the registry disarmed: parallel
  // engine scans, a predicate-cache population, and a sharded scatter.
  PredicateCache cache;
  EngineConfig ecfg;
  ecfg.exec.num_threads = 2;
  ecfg.predicate_cache = &cache;
  Engine engine(&catalog_, ecfg);
  ASSERT_TRUE(
      engine.Execute(TopKPlan(ScanPlan("fact"), "key", true, 10)).ok());
  ASSERT_TRUE(engine.Execute(ScanPlan("fact")).ok());

  ShardExecConfig scfg;
  scfg.num_shards = 2;
  ShardCoordinator coordinator(&catalog_, scfg);
  ASSERT_TRUE(coordinator.Execute(ScanPlan("fact")).ok());
  EXPECT_EQ(coordinator.last_exec().retries, 0);

  EXPECT_EQ(FailPointRegistry::Instance().TotalTrips(), trips_before)
      << "a disarmed failpoint fired — the disabled fast path is broken";
}

TEST_F(FaultToleranceTest, EveryArmedReachableSiteTripsWhenDriven) {
  RegisterAllSites();
  // One site armed at a time: arming everything at once lets the upstream
  // scan faults starve the downstream sites (a query that dies at partition
  // load never populates the cache or reaches the gather), so each site is
  // armed in isolation and driven by a workload that reaches it. This is
  // the wiring self-test CI gates on — an armed site that never trips means
  // the production code path lost its SNOW_FAILPOINT check.
  auto drive_engine = [&](bool with_cache) {
    PredicateCache cache;
    EngineConfig ecfg;
    ecfg.exec.num_threads = 2;
    if (with_cache) ecfg.predicate_cache = &cache;
    Engine engine(&catalog_, ecfg);
    for (int k = 1; k <= 4; ++k) {
      auto result = engine.Execute(TopKPlan(ScanPlan("fact"), "key", true, k));
      if (!result.ok()) EXPECT_FALSE(result.status().message().empty());
    }
  };
  auto drive_sharded = [&] {
    ShardExecConfig cfg;
    cfg.num_shards = 2;
    cfg.engine.exec.num_threads = 2;
    cfg.retry.base_backoff_us = 10;
    cfg.retry.max_backoff_us = 50;
    ShardCoordinator coordinator(&catalog_, cfg);
    for (int i = 0; i < 4; ++i) {
      auto result = coordinator.Execute(ScanPlan("fact"));
      if (!result.ok()) EXPECT_FALSE(result.status().message().empty());
    }
  };

  struct SiteDrill {
    const char* site;
    bool sharded;  ///< Reached through the coordinator vs a plain engine.
  };
  const SiteDrill drills[] = {
      {"scan.partition_load", false}, {"pool.dispatch", false},
      {"predcache.populate", false},  {"shard.scatter_launch", true},
      {"shard.scatter_complete", true}, {"shard.gather_replay", true},
  };
  for (const SiteDrill& drill : drills) {
    FailPoint* fp = FailPointRegistry::Instance().Find(drill.site);
    ASSERT_NE(fp, nullptr) << drill.site;
    fp->ArmEveryNth(2);
    if (drill.sharded) {
      drive_sharded();
    } else {
      drive_engine(/*with_cache=*/true);
    }
    EXPECT_GT(fp->evaluations(), 0u)
        << drill.site
        << " was armed but never evaluated — the site is unreachable";
    EXPECT_GT(fp->trips(), 0u)
        << drill.site << " was armed and evaluated but never tripped";
    fp->Disarm();
  }

  // Recovery: with everything disarmed, queries are healthy again.
  Engine engine(&catalog_, EngineConfig());
  auto after = engine.Execute(ScanPlan("fact"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// ---------------------------------------------------------------------------
// Injection storm through the service: no crash, no hang, no leaked slot.
// ---------------------------------------------------------------------------

TEST_F(FaultToleranceTest, InjectionStormLeaksNoSlotsAndKeepsStatsConsistent) {
  RegisterAllSites();
  ASSERT_TRUE(catalog_.RegisterTable(Synthetic(
      "churn", workload::Layout::kRandom, 6, 80, 99)).ok());

  QueryServiceConfig scfg;
  scfg.num_threads = 2;
  scfg.max_in_flight = 3;
  scfg.num_shards = 2;
  scfg.retry.base_backoff_us = 10;
  scfg.retry.max_backoff_us = 100;
  scfg.default_deadline = std::chrono::seconds(30);  // generous: no shedding
  QueryService service(&catalog_, scfg);

  // 20% injection at every site, deterministic per site via distinct seeds.
  uint64_t seed = 1;
  for (const char* site : kAllSites) {
    FailPointRegistry::Instance().Find(site)->ArmProbability(0.2, seed++);
  }

  std::atomic<bool> stop{false};
  std::thread churner([&] {
    for (uint64_t gen = 100; !stop.load(); ++gen) {
      ASSERT_TRUE(catalog_
                      .ReplaceTable(Synthetic("churn",
                                              workload::Layout::kRandom, 6, 80,
                                              gen))
                      .ok());
      std::this_thread::yield();
    }
  });

  constexpr int kSubmitters = 3;
  constexpr int kQueriesPerSubmitter = 20;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kQueriesPerSubmitter; ++i) {
        PlanPtr plan;
        switch ((s + i) % 3) {
          case 0: plan = ScanPlan("fact"); break;
          case 1: plan = TopKPlan(ScanPlan("fact"), "key", true, 10); break;
          default: plan = ScanPlan("churn"); break;
        }
        auto submitted = service.Submit(std::move(plan));
        ASSERT_TRUE(submitted.ok());  // queue is unbounded here
        auto result = submitted.value().Await();
        if (!result.ok()) {
          // Clean, well-typed failure only — never a crash, hang, or
          // partial result dressed up as success.
          EXPECT_FALSE(result.status().message().empty());
          EXPECT_TRUE(result.status().code() == StatusCode::kUnavailable ||
                      result.status().code() ==
                          StatusCode::kDeadlineExceeded ||
                      result.status().code() == StatusCode::kInternal)
              << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  stop.store(true);
  churner.join();

  service.Drain();
  FailPointRegistry::Instance().DisarmAll();

  // Slot reconciliation: nothing in flight, nothing queued, no task stuck
  // in the shared pool's backlog.
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.scan_pool()->queue_depth(), 0u)
      << "a faulted query left tasks stranded in the shared pool queue";

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kSubmitters * kQueriesPerSubmitter);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.completed,
            stats.ok + stats.failed + stats.cancelled + stats.deadline_exceeded)
      << "service accounting lost a query during the storm";
  EXPECT_GT(FailPointRegistry::Instance().TotalTrips(), 0u)
      << "the storm never injected a single fault — 20% at six sites";

  // The service still serves cleanly after the storm.
  auto reference = RunSolo(ScanPlan("fact"));
  ASSERT_TRUE(reference.ok());
  auto after = service.Execute(ScanPlan("fact"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Serialize(after.value()), Serialize(reference.value()));
}

}  // namespace
}  // namespace snowprune
