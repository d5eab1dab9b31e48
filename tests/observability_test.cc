/// Observability layer: the metrics registry under concurrent writers,
/// trace span nesting and worker-buffer/child-trace merge determinism, and
/// the EXPLAIN ANALYZE profile's contract — per-node pruning counters that
/// reconcile exactly against the query's PruningStats, with rows and stats
/// byte-identical whether tracing is on or off.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "exec/engine.h"
#include "exec/profile.h"
#include "expr/builder.h"
#include "service/query_service.h"
#include "shard/coordinator.h"
#include "test_util.h"

namespace snowprune {
namespace {

using shard::ShardCoordinator;
using shard::ShardExecConfig;
using testing_util::DiffStats;
using testing_util::IntTable;
using testing_util::Serialize;

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Many writer threads on one counter/gauge/histogram while a reader loops
/// SnapshotJson: no races (TSan job), and exact totals once writers join.
TEST(MetricsTest, ConcurrentWritersAndSnapshots) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  Counter* counter = registry.GetCounter("test.concurrent_counter");
  Gauge* gauge = registry.GetGauge("test.concurrent_gauge");
  Histogram* histogram = registry.GetHistogram("test.concurrent_histogram",
                                               {1.0, 10.0, 100.0});
  const int64_t counter_before = counter->Value();
  const int64_t histogram_before = histogram->Count();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string json = registry.SnapshotJson();
      EXPECT_NE(json.find("test.concurrent_counter"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Add();
        gauge->Add(1);
        gauge->Add(-1);
        histogram->Record(static_cast<double>((t + i) % 200));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  EXPECT_EQ(counter->Value() - counter_before, kThreads * kOpsPerThread);
  EXPECT_EQ(gauge->Value(), 0);
  EXPECT_EQ(histogram->Count() - histogram_before, kThreads * kOpsPerThread);
  int64_t bucket_sum = 0;
  for (int64_t b : histogram->BucketCounts()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, histogram->Count());
}

/// Get* with the same name returns the same instrument — call sites may
/// cache the pointer forever.
TEST(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Instance();
  EXPECT_EQ(registry.GetCounter("test.stable"),
            registry.GetCounter("test.stable"));
  EXPECT_EQ(registry.GetGauge("test.stable_gauge"),
            registry.GetGauge("test.stable_gauge"));
  EXPECT_EQ(registry.GetHistogram("test.stable_hist", {1.0, 2.0}),
            registry.GetHistogram("test.stable_hist", {1.0, 2.0}));
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

/// BeginSpan/EndSpan nesting: ids are 1-based in open order, parents link
/// the tree, EndSpan stamps a duration.
TEST(TraceTest, SpanNesting) {
  Trace trace;
  const uint32_t root = trace.BeginSpan("query");
  const uint32_t child = trace.BeginSpan("compile", root);
  trace.AnnotateInt(child, "total_partitions", 8);
  trace.EndSpan(child);
  {
    ScopedSpan scoped(&trace, "execute", root);
    EXPECT_EQ(scoped.id(), 3u);
  }
  trace.EndSpan(root);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].name, "query");
  EXPECT_EQ(trace.spans()[0].parent, 0u);
  EXPECT_EQ(trace.spans()[1].name, "compile");
  EXPECT_EQ(trace.spans()[1].parent, root);
  ASSERT_EQ(trace.spans()[1].annotations.size(), 1u);
  EXPECT_EQ(trace.spans()[1].annotations[0].key, "total_partitions");
  EXPECT_EQ(trace.spans()[1].annotations[0].int_value, 8);
  EXPECT_EQ(trace.spans()[2].parent, root);
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_GT(span.duration_ns, 0) << span.name;
  }
}

/// A null trace makes ScopedSpan a no-op with id 0 — the id is safe to pass
/// straight through as a parent.
TEST(TraceTest, NullTraceScopedSpanIsNoop) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_EQ(span.id(), 0u);
  span.AnnotateInt("ignored", 1);
}

/// Merging worker buffers re-bases buffer-local ids (and intra-buffer
/// parent links) under the given parent, deterministically: two traces
/// merging identical buffers in the same order describe identical trees.
TEST(TraceTest, MergeBufferRebasesIdsDeterministically) {
  auto build = [] {
    auto trace = std::make_unique<Trace>();
    const uint32_t scan = trace->BeginSpan("scan");
    for (int worker = 0; worker < 3; ++worker) {
      SpanBuffer buffer;
      const uint32_t morsel = buffer.Begin("morsel");
      buffer.AnnotateInt(morsel, "partition", worker);
      const uint32_t inner = buffer.Begin("load", morsel);
      buffer.End(inner);
      buffer.End(morsel);
      trace->MergeBuffer(&buffer, scan);
    }
    trace->EndSpan(scan);
    return trace;
  };
  auto a = build();
  auto b = build();
  ASSERT_EQ(a->spans().size(), 7u);  // scan + 3 × (morsel, load)
  ASSERT_EQ(a->spans().size(), b->spans().size());
  for (size_t i = 0; i < a->spans().size(); ++i) {
    const TraceSpan& sa = a->spans()[i];
    const TraceSpan& sb = b->spans()[i];
    EXPECT_EQ(sa.id, sb.id);
    EXPECT_EQ(sa.parent, sb.parent);
    EXPECT_EQ(sa.name, sb.name);
  }
  // The merged morsel spans hang under "scan"; their "load" children hang
  // under the re-based morsel ids, not the buffer-local ones.
  const uint32_t scan_id = a->spans()[0].id;
  for (size_t i = 1; i < a->spans().size(); i += 2) {
    EXPECT_EQ(a->spans()[i].name, "morsel");
    EXPECT_EQ(a->spans()[i].parent, scan_id);
    EXPECT_EQ(a->spans()[i + 1].name, "load");
    EXPECT_EQ(a->spans()[i + 1].parent, a->spans()[i].id);
  }
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE profile vs PruningStats
// ---------------------------------------------------------------------------

/// A clustered table where filter and top-k pruning both fire.
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

Result<QueryResult> RunTraced(Catalog* catalog, const PlanPtr& plan,
                              Trace* trace, int num_threads = 1) {
  EngineConfig config;
  config.exec.num_threads = num_threads;
  Engine engine(catalog, config);
  ExecuteOptions opts;
  opts.trace = trace;
  return engine.Execute(plan, opts);
}

/// The first node named `name` with detail `detail`, depth first.
const ProfileNode* FindProfileNode(const ProfileNode* node,
                                   const std::string& name,
                                   const std::string& detail) {
  if (node == nullptr) return nullptr;
  if (node->name == name && node->detail == detail) return node;
  for (const ProfileNode* child : node->children) {
    if (const ProfileNode* found = FindProfileNode(child, name, detail)) {
      return found;
    }
  }
  return nullptr;
}

/// The profile's per-node pruning counters sum to the query's PruningStats
/// exactly, for plans covering every engine pruning level.
TEST(ProfileTest, SumPruningReconcilesWithQueryStats) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 8, 10)).ok());
  ASSERT_TRUE(
      catalog.RegisterTable(IntTable("build", "key", {{5, 6, 7}})).ok());
  // A LIMIT over a build-outer join prunes the build scan "t" (§4.3): the
  // count belongs on that scan's node, not the probe scan's.
  const PlanPtr limit_over_join =
      LimitPlan(JoinPlan(ScanPlan("build"), ScanPlan("t"), "key", "key",
                         JoinKind::kBuildOuter),
                5);
  const std::vector<PlanPtr> plans = {
      ScanPlan("t", Between(Col("key"), Value(int64_t{12}), Value(int64_t{25}))),
      LimitPlan(ScanPlan("t"), 5),
      TopKPlan(ScanPlan("t", Gt(Col("key"), Lit(int64_t{30}))), "key",
               /*descending=*/true, 3),
      SortPlan(ScanPlan("t", Lt(Col("key"), Lit(int64_t{20}))), "key",
               /*descending=*/false),
      JoinPlan(ScanPlan("t"), ScanPlan("build"), "key", "key"),
      AggregatePlan(ScanPlan("t"), {},
                    {AggPlanSpec{AggFunc::kCount, "", "n"}}),
      limit_over_join,
  };
  for (const PlanPtr& plan : plans) {
    Trace trace;
    auto result = RunTraced(&catalog, plan, &trace);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const QueryResult& r = result.value();
    ASSERT_NE(r.profile, nullptr);
    ASSERT_NE(r.profile->root, nullptr);
    const PruningStats sum = r.profile->SumPruning();
    EXPECT_EQ(DiffStats(sum, r.stats), "");
    EXPECT_EQ(sum.speculative_loads, r.stats.speculative_loads);
    // The root node's row count is the query's result cardinality.
    EXPECT_EQ(r.profile->root->rows_out,
              static_cast<int64_t>(r.rows.size()));
    EXPECT_FALSE(r.profile->ToText().empty());
    EXPECT_NE(r.profile->ToJson().find("\"plan\""), std::string::npos);
    if (plan == limit_over_join) {
      const ProfileNode* build_scan =
          FindProfileNode(r.profile->root, "Scan", "t");
      ASSERT_NE(build_scan, nullptr);
      EXPECT_GT(r.stats.pruned_by_limit, 0);
      EXPECT_EQ(build_scan->pruning.pruned_by_limit, r.stats.pruned_by_limit);
    }
  }
}

/// Tracing must be observation only: rows and deterministic PruningStats
/// byte-identical with tracing on vs off, at every thread count.
TEST(ProfileTest, TracedRunIsByteIdenticalToUntraced) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 12, 16)).ok());
  const std::vector<PlanPtr> plans = {
      TopKPlan(ScanPlan("t", Gt(Col("key"), Lit(int64_t{40}))), "key",
               /*descending=*/true, 7),
      SortPlan(ScanPlan("t", Between(Col("key"), Value(int64_t{10}),
                                     Value(int64_t{120}))),
               "key", /*descending=*/false),
      LimitPlan(ScanPlan("t"), 33),
  };
  for (const PlanPtr& plan : plans) {
    for (int threads : {1, 2, 4}) {
      auto untraced = RunTraced(&catalog, plan, nullptr, threads);
      ASSERT_TRUE(untraced.ok());
      EXPECT_EQ(untraced.value().profile, nullptr);
      Trace trace;
      auto traced = RunTraced(&catalog, plan, &trace, threads);
      ASSERT_TRUE(traced.ok());
      EXPECT_EQ(Serialize(traced.value()), Serialize(untraced.value()));
      EXPECT_EQ(DiffStats(traced.value().stats, untraced.value().stats), "");
      EXPECT_FALSE(trace.spans().empty());
    }
  }
}

/// Sharded top-k through the coordinator: the Gather node carries every
/// pruning level including the cross-shard one, and the tree sum still
/// reconciles exactly — shards_total/shards_pruned included.
TEST(ProfileTest, ShardedTopKProfileReconciles) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 8, 10)).ok());
  auto plan = TopKPlan(
      ScanPlan("t", Between(Col("key"), Value(int64_t{20}), Value(int64_t{55}))),
      "key", /*descending=*/true, 4);

  ShardExecConfig config;
  config.num_shards = 4;
  ShardCoordinator coordinator(&catalog, config);
  Trace trace;
  ExecuteOptions opts;
  opts.trace = &trace;
  auto result = coordinator.Execute(plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QueryResult& r = result.value();
  EXPECT_GT(r.stats.shards_total, 0);
  ASSERT_NE(r.profile, nullptr);

  const PruningStats sum = r.profile->SumPruning();
  EXPECT_EQ(DiffStats(sum, r.stats), "");
  EXPECT_EQ(sum.speculative_loads, r.stats.speculative_loads);
  EXPECT_EQ(sum.shards_total, r.stats.shards_total);
  EXPECT_EQ(sum.shards_pruned, r.stats.shards_pruned);

  const std::string text = r.profile->ToText();
  EXPECT_NE(text.find("TopK"), std::string::npos);
  EXPECT_NE(text.find("Gather"), std::string::npos);
  EXPECT_NE(text.find("shards"), std::string::npos);
  // The trace shows the coordinator phases, the shards' slice scans under
  // the scatter span.
  bool saw_scatter = false;
  bool saw_gather = false;
  for (const TraceSpan& span : trace.spans()) {
    saw_scatter |= span.name == "scatter";
    saw_gather |= span.name == "gather";
  }
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_gather);

  // And the traced coordinator run matches an untraced one byte for byte.
  auto untraced = coordinator.Execute(plan);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(Serialize(r), Serialize(untraced.value()));
  EXPECT_EQ(DiffStats(r.stats, untraced.value().stats), "");
}

// ---------------------------------------------------------------------------
// Service-side sampling
// ---------------------------------------------------------------------------

/// trace_every=2 samples queries 1, 3, 5, ... (the first submitted query is
/// sampled); sampled handles expose a trace and a profile, unsampled ones
/// expose neither.
TEST(ServiceTraceTest, TraceSamplingFollowsConfig) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable(RangedTable("t", 8, 10)).ok());
  service::QueryServiceConfig config;
  config.num_threads = 2;
  config.max_in_flight = 1;  // one driver: completion order == submit order
  config.trace_every = 2;
  service::QueryService service(&catalog, config);

  std::vector<service::QueryService::Handle> handles;
  for (int i = 0; i < 4; ++i) {
    auto submitted = service.Submit(
        TopKPlan(ScanPlan("t", Gt(Col("key"), Lit(int64_t{30}))), "key",
                 /*descending=*/true, 3));
    ASSERT_TRUE(submitted.ok());
    handles.push_back(submitted.value());
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    auto result = handles[i].Await();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const bool sampled = i % 2 == 0;
    EXPECT_EQ(handles[i].trace() != nullptr, sampled) << "query " << i;
    EXPECT_EQ(handles[i].profile() != nullptr, sampled) << "query " << i;
    if (sampled) {
      EXPECT_FALSE(handles[i].trace()->spans().empty());
      const PruningStats sum = handles[i].profile()->SumPruning();
      EXPECT_EQ(DiffStats(sum, result.value().stats), "");
    }
  }
}

}  // namespace
}  // namespace snowprune
