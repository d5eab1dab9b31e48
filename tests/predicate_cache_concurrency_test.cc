#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/predicate_cache.h"
#include "exec/engine.h"
#include "expr/builder.h"
#include "test_util.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using testing_util::IntTable;

std::shared_ptr<Table> CacheTable(const std::string& name, int partitions) {
  std::vector<std::vector<int64_t>> parts;
  for (int p = 0; p < partitions; ++p) {
    parts.push_back({p * 10 + 1, p * 10 + 5, p * 10 + 9});
  }
  return IntTable(name, "key", parts);
}

/// N threads hammering distinct and shared fingerprints: every lookup must
/// be counted exactly once in hits+misses (no torn counters) and every hit
/// must return a sane scan set.
TEST(PredicateCacheConcurrencyTest, CountersConsistentUnderContention) {
  PredicateCache cache(/*capacity=*/1024);
  auto table = CacheTable("t", 16);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr int kFingerprints = 32;

  std::atomic<int64_t> observed_hits{0};
  std::atomic<int64_t> observed_misses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string fp = "q" + std::to_string((t + i) % kFingerprints);
        auto cached = cache.Lookup(fp, *table);
        if (cached.has_value()) {
          observed_hits.fetch_add(1);
          // Entries only ever contain partitions of this 16-partition
          // table (the table is never mutated, so no lookup-time appends).
          for (PartitionId pid : *cached) {
            ASSERT_LT(pid, static_cast<PartitionId>(16));
          }
        } else {
          observed_misses.fetch_add(1);
          cache.Insert(fp, *table, "key",
                       {static_cast<PartitionId>(i % 16),
                        static_cast<PartitionId>((i + 7) % 16)});
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.hits() + cache.misses(), int64_t{kThreads} * kIters);
  EXPECT_EQ(cache.hits(), observed_hits.load());
  EXPECT_EQ(cache.misses(), observed_misses.load());
  EXPECT_LE(cache.size(), size_t{kFingerprints});
  // The allowed race window: several threads may miss the same fingerprint
  // before the first Insert lands. Once it has landed every later lookup
  // hits, so with 32 fingerprints and 16000 lookups hits must dominate.
  EXPECT_GT(cache.hits(), cache.misses());
}

/// Lookups racing DML invalidation: OnUpdate/OnDelete rewrite the entry map
/// while readers iterate it. Correctness here is "no crash, no torn entry,
/// counters add up" — the cache may legitimately answer hit or miss on
/// either side of the invalidation.
TEST(PredicateCacheConcurrencyTest, LookupsRaceInvalidation) {
  PredicateCache cache(/*capacity=*/256);
  auto table = CacheTable("t", 16);
  auto other = CacheTable("other", 16);
  constexpr int kThreads = 6;
  constexpr int kIters = 1500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads - 1; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string fp = "q" + std::to_string((t * 31 + i) % 24);
        if (!cache.Lookup(fp, *table).has_value()) {
          cache.Insert(fp, *table, (i % 2 == 0) ? "key" : "other_col",
                       {static_cast<PartitionId>(i % 16)});
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIters; ++i) {
      switch (i % 3) {
        case 0: cache.OnUpdate(*table, "key"); break;
        case 1: cache.OnDelete(*table, static_cast<PartitionId>(i % 16)); break;
        default: cache.OnUpdate(*other, "key"); break;
      }
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.hits() + cache.misses(), int64_t{kThreads - 1} * kIters);
}

// --------------------------------------------------------------------------
// Request coalescing (LookupOrPopulate)
// --------------------------------------------------------------------------

/// Concurrent identical queries must trigger exactly ONE population: the
/// first thread owns the computation, every other thread blocks and then
/// hits the freshly published entry.
TEST(PredicateCacheConcurrencyTest, CoalescingYieldsSinglePopulation) {
  PredicateCache cache(/*capacity=*/64);
  auto table = CacheTable("t", 16);
  constexpr int kWaiters = 6;

  // The owner (this thread) acquires the population ticket first.
  PredicateCache::PopulateTicket ticket;
  auto first = cache.LookupOrPopulate("fp", *table, &ticket);
  ASSERT_FALSE(first.has_value());
  ASSERT_TRUE(ticket.owns());

  std::atomic<int> populations{0};
  std::atomic<int> hits_seen{0};
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      PredicateCache::PopulateTicket mine;
      auto cached = cache.LookupOrPopulate("fp", *table, &mine);
      if (mine.owns()) {
        populations.fetch_add(1);
        cache.Insert("fp", *table, "key", {1, 2});
      } else {
        ASSERT_TRUE(cached.has_value());
        hits_seen.fetch_add(1);
      }
    });
  }
  // Let the waiters pile up on the in-flight population, then publish.
  while (cache.coalesced_waits() < kWaiters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cache.Insert("fp", *table, "key", {0, 3});
  for (auto& th : threads) th.join();

  EXPECT_EQ(populations.load(), 0);  // only this thread computed
  EXPECT_EQ(hits_seen.load(), kWaiters);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), kWaiters);
  EXPECT_EQ(cache.coalesced_waits(), kWaiters);
}

/// An abandoned population (query failed, ticket destroyed without Insert)
/// must release the waiters and let exactly one of them take over.
TEST(PredicateCacheConcurrencyTest, AbandonedPopulationHandsOffOwnership) {
  PredicateCache cache(/*capacity=*/64);
  auto table = CacheTable("t", 16);
  constexpr int kWaiters = 4;

  auto ticket = std::make_unique<PredicateCache::PopulateTicket>();
  auto first = cache.LookupOrPopulate("fp", *table, ticket.get());
  ASSERT_FALSE(first.has_value());

  std::atomic<int> populations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      PredicateCache::PopulateTicket mine;
      auto cached = cache.LookupOrPopulate("fp", *table, &mine);
      if (mine.owns()) {
        populations.fetch_add(1);
        cache.Insert("fp", *table, "key", {5});
      } else {
        ASSERT_TRUE(cached.has_value());
      }
    });
  }
  while (cache.coalesced_waits() < kWaiters) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ticket.reset();  // abandon without publishing
  for (auto& th : threads) th.join();

  EXPECT_EQ(populations.load(), 1);  // exactly one waiter took over
  EXPECT_EQ(cache.misses(), 2);      // original owner + successor
  EXPECT_EQ(cache.hits(), kWaiters - 1);
}

/// End-to-end through the engine: two engines sharing one cache run the
/// same top-k query concurrently. Coalescing must make the second query
/// wait for (and reuse) the first one's population — one miss, one hit —
/// with byte-identical results.
TEST(PredicateCacheConcurrencyTest, ConcurrentIdenticalQueriesCoalesce) {
  Catalog catalog;
  workload::TableGenConfig cfg;
  cfg.name = "t";
  cfg.num_partitions = 24;
  cfg.rows_per_partition = 80;
  cfg.layout = workload::Layout::kClustered;
  cfg.seed = 321;
  ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());

  PredicateCache cache(/*capacity=*/64);
  auto plan = TopKPlan(ScanPlan("t"), "key", /*descending=*/true, 7);

  auto run = [&]() {
    EngineConfig config;
    config.predicate_cache = &cache;
    config.exec.num_threads = 1;
    Engine engine(&catalog, config);
    auto result = engine.Execute(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  QueryResult r1, r2;
  std::thread t1([&] { r1 = run(); });
  std::thread t2([&] { r2 = run(); });
  t1.join();
  t2.join();

  // Exactly one population: one engine missed (and computed), the other
  // either waited on the in-flight population or arrived after the publish
  // — a hit either way.
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
  ASSERT_EQ(r1.rows.size(), r2.rows.size());
  for (size_t i = 0; i < r1.rows.size(); ++i) {
    ASSERT_EQ(r1.rows[i].size(), r2.rows[i].size());
    for (size_t j = 0; j < r1.rows[i].size(); ++j) {
      EXPECT_TRUE(r1.rows[i][j] == r2.rows[i][j]);
    }
  }
  EXPECT_TRUE(r1.predicate_cache_hit || r2.predicate_cache_hit);
}

/// Regression: a plan with TWO cache-eligible top-k scans must not
/// hold-and-wait across fingerprints. Two engines compiling mirror-image
/// join-of-top-k plans concurrently would ABBA-deadlock if a compile could
/// block on one fingerprint while owning another's population ticket; the
/// engine therefore coalesces only the first cache-eligible scan per plan.
/// (A regression here shows up as this test hanging.)
TEST(PredicateCacheConcurrencyTest, MirrorJoinTopKPlansDoNotDeadlock) {
  Catalog catalog;
  for (const char* name : {"a", "b"}) {
    workload::TableGenConfig cfg;
    cfg.name = name;
    cfg.num_partitions = 8;
    cfg.rows_per_partition = 40;
    cfg.seed = name[0];
    ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());
  }
  PredicateCache cache(/*capacity=*/64);
  auto plan1 = JoinPlan(TopKPlan(ScanPlan("a"), "key", true, 5),
                        TopKPlan(ScanPlan("b"), "key", true, 5), "key", "key");
  auto plan2 = JoinPlan(TopKPlan(ScanPlan("b"), "key", true, 5),
                        TopKPlan(ScanPlan("a"), "key", true, 5), "key", "key");

  auto run = [&](const PlanPtr& plan) {
    for (int i = 0; i < 25; ++i) {
      EngineConfig config;
      config.predicate_cache = &cache;
      config.exec.num_threads = 1;
      Engine engine(&catalog, config);
      auto result = engine.Execute(plan);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  };
  std::thread t1([&] { run(plan1); });
  std::thread t2([&] { run(plan2); });
  t1.join();
  t2.join();
  EXPECT_GT(cache.hits() + cache.misses(), 0);
}

// --------------------------------------------------------------------------
// Scan entries and refreshes
// --------------------------------------------------------------------------

/// Engines sharing one cache populate and hit scan entries concurrently:
/// every filtered scan, LIMIT and aggregate over a scan must return exactly
/// what a cache-off engine returns, whichever thread wrote the entry.
TEST(PredicateCacheConcurrencyTest, ConcurrentScanEntriesKeepRowsIdentical) {
  Catalog catalog;
  workload::TableGenConfig cfg;
  cfg.name = "t";
  cfg.num_partitions = 32;
  cfg.rows_per_partition = 60;
  cfg.layout = workload::Layout::kRandom;
  cfg.seed = 77;
  ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());
  // Plans are bound during execution, so each thread builds its own.
  auto make_plans = [] {
    std::vector<PlanPtr> plans;
    for (int64_t lo : {100, 400, 700}) {
      auto pred = [lo] {
        return And({Between(Col("key"), Value(lo), Value(lo + 40)),
                    Lt(Col("val"), Lit(0.5))});
      };
      plans.push_back(ScanPlan("t", pred()));
      plans.push_back(LimitPlan(ScanPlan("t", pred()), 3));
      plans.push_back(AggregatePlan(ScanPlan("t", pred()), {},
                                    {AggPlanSpec{AggFunc::kCount, "", "n"}}));
    }
    return plans;
  };
  auto rows_of = [](const QueryResult& r) {
    std::string s;
    for (const Row& row : r.rows) {
      for (const Value& v : row) s += v.ToString() + ",";
      s += "\n";
    }
    return s;
  };
  std::vector<std::string> expected;
  {
    EngineConfig config;
    config.exec.num_threads = 1;
    Engine reference(&catalog, config);
    for (const PlanPtr& plan : make_plans()) {
      auto r = reference.Execute(plan);
      ASSERT_TRUE(r.ok());
      expected.push_back(rows_of(r.value()));
    }
  }

  PredicateCache cache(/*capacity=*/64);
  constexpr int kThreads = 4;
  constexpr int kRepeats = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EngineConfig config;
      config.predicate_cache = &cache;
      config.exec.num_threads = 1 + t % 2;
      Engine engine(&catalog, config);
      std::vector<PlanPtr> plans = make_plans();
      for (int i = 0; i < kRepeats; ++i) {
        const size_t p = static_cast<size_t>(t + i) % plans.size();
        auto r = engine.Execute(plans[p]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(rows_of(r.value()), expected[p]) << "plan " << p;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(cache.hits(), 0);
}

/// Refreshes racing appends. A query that compiled before an INSERT
/// publishes an entry covering the old partition count; one that compiled
/// after covers the new partitions too. Whatever order the refreshes land
/// in, every lookup must still return the appended partitions (14, 15
/// here) — an entry never claims coverage its writer did not see. The
/// appends themselves precede the race: a Table is not safe to append to
/// while queries read it, so the writers' snapshots model the interleaving.
TEST(PredicateCacheConcurrencyTest, RefreshesRacingAppendsKeepNewPartitions) {
  PredicateCache cache(/*capacity=*/16);
  auto table = CacheTable("t", 16);
  const PredicateCache::Coverage before{14, table->dml_version()};
  const PredicateCache::Coverage after = PredicateCache::Coverage::Of(*table);
  cache.Insert("fp", *table,
               PredicateCache::Population{before, "", {"key"}, {3}});
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        if ((i + w) % 2 == 0) {
          cache.Insert("fp", *table,
                       PredicateCache::Population{before, "", {"key"}, {3}});
        } else {
          cache.Insert("fp", *table,
                       PredicateCache::Population{after, "", {"key"},
                                                  {3, 14, 15}});
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        auto hit = cache.Lookup("fp", *table);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, (std::vector<PartitionId>{3, 14, 15}));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.size(), 1u);
}

/// Lookups racing refreshes of the same entry: every lookup hits and sees
/// one whole population (a single partition), never a torn or missing
/// entry, and every hit is counted.
TEST(PredicateCacheConcurrencyTest, LookupsStayWholeAcrossRefreshes) {
  PredicateCache cache(/*capacity=*/16);
  auto table = CacheTable("t", 16);
  cache.Insert("fp", *table, "key", {0});
  constexpr int kReaders = 4;
  constexpr int kLookups = 3000;
  std::atomic<bool> done{false};
  std::thread refresher([&] {
    for (int i = 0; !done.load(); ++i) {
      cache.Insert("fp", *table, "key", {static_cast<PartitionId>(i % 16)});
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kLookups; ++i) {
        auto hit = cache.Lookup("fp", *table);
        ASSERT_TRUE(hit.has_value());
        ASSERT_EQ(hit->size(), 1u);
        ASSERT_LT((*hit)[0], 16u);
      }
    });
  }
  for (auto& th : readers) th.join();
  done.store(true);
  refresher.join();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), int64_t{kReaders} * kLookups);
}

/// LIMIT runs write k-sufficient entries and full scans write scan entries,
/// all under one scan fingerprint, from concurrent engines. Once a full scan
/// has finished, its scan entry must serve every lookup that wants all
/// qualifying rows: no racing k-sufficient write may downgrade it, and every
/// LIMIT answer keeps its full count whichever entry served it.
TEST(PredicateCacheConcurrencyTest, LimitWritersNeverDowngradeAScanEntry) {
  Catalog catalog;
  workload::TableGenConfig cfg;
  cfg.name = "t";
  cfg.num_partitions = 24;
  cfg.rows_per_partition = 80;
  cfg.seed = 77;
  ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());
  auto table = catalog.GetTable("t");
  // Every engine binds its own plan: binding writes into the predicate.
  auto scan = [] { return ScanPlan("t", Gt(Col("val"), Lit(500.0))); };
  PlanPtr bound = scan();
  ASSERT_TRUE(BindExpr(bound->predicate, table->schema()).ok());
  const std::string fingerprint = bound->Fingerprint();

  auto reference = Engine(&catalog, EngineConfig()).Execute(scan());
  ASSERT_TRUE(reference.ok());
  const auto matches = static_cast<int64_t>(reference.value().rows.size());
  ASSERT_GT(matches, 60);

  PredicateCache cache;
  auto engine = [&] {
    EngineConfig config;
    config.predicate_cache = &cache;
    config.exec.num_threads = 2;
    return std::make_unique<Engine>(&catalog, config);
  };

  constexpr int kIters = 150;
  std::atomic<bool> scan_published{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      auto limit_engine = engine();
      for (int i = 0; i < kIters; ++i) {
        const int64_t k = 1 + (i * 7 + w) % 60;
        auto result = limit_engine->Execute(LimitPlan(scan(), k));
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(static_cast<int64_t>(result.value().rows.size()),
                  std::min(k, matches));
      }
    });
    threads.emplace_back([&] {
      auto scan_engine = engine();
      for (int i = 0; i < kIters / 5; ++i) {
        auto result = scan_engine->Execute(scan());
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(static_cast<int64_t>(result.value().rows.size()), matches);
        scan_published.store(true);
      }
    });
  }
  std::thread checker([&] {
    while (!done.load()) {
      // Read the flag first: a scan entry published before it was set must
      // be visible to the lookup that follows.
      const bool published = scan_published.load();
      int64_t rows = 0;
      auto hit =
          cache.Lookup(fingerprint, *table, PredicateCache::kAllRows, &rows);
      if (published) {
        ASSERT_TRUE(hit.has_value());
        ASSERT_EQ(rows, PredicateCache::kAllRows);
      }
    }
  });
  for (auto& th : threads) th.join();
  done.store(true);
  checker.join();
  EXPECT_TRUE(scan_published.load());
  EXPECT_TRUE(cache.Lookup(fingerprint, *table).has_value());
}

/// Single-threaded sanity: after one Insert, repeats hit; eviction respects
/// capacity FIFO; size() never exceeds capacity under churn.
TEST(PredicateCacheConcurrencyTest, CapacityRespectedUnderChurn) {
  PredicateCache cache(/*capacity=*/8);
  auto table = CacheTable("t", 4);
  for (int i = 0; i < 100; ++i) {
    cache.Insert("q" + std::to_string(i), *table, "key", {0, 1});
    EXPECT_LE(cache.size(), size_t{8});
  }
  EXPECT_EQ(cache.size(), size_t{8});
  EXPECT_FALSE(cache.Lookup("q0", *table).has_value());
  EXPECT_TRUE(cache.Lookup("q99", *table).has_value());
}

}  // namespace
}  // namespace snowprune
