/// Google-benchmark microbenchmarks: the per-partition costs that the
/// compile-time/runtime balance of §3.2 trades off.
#include <benchmark/benchmark.h>

#include "core/filter_pruner.h"
#include "core/join_pruner.h"
#include "core/pruning_tree.h"
#include "exec/column_batch.h"
#include "exec/engine.h"
#include "expr/builder.h"
#include "expr/evaluator.h"
#include "expr/like.h"
#include "expr/range_analysis.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using workload::Layout;
using workload::SyntheticTable;
using workload::TableGenConfig;

std::shared_ptr<Table> BenchTable() {
  static std::shared_ptr<Table> table = [] {
    TableGenConfig cfg;
    cfg.name = "bench";
    cfg.num_partitions = 2000;
    cfg.rows_per_partition = 100;
    cfg.layout = Layout::kClustered;
    cfg.seed = 7;
    return SyntheticTable(cfg);
  }();
  return table;
}

ExprPtr SimplePredicate() {
  auto table = BenchTable();
  auto pred = Between(Col("key"), Value(int64_t{100000}), Value(int64_t{200000}));
  (void)BindExpr(pred, table->schema());
  return pred;
}

ExprPtr ComplexPredicate() {
  auto table = BenchTable();
  // The §3 guiding-example shape: IF + arithmetic + LIKE.
  auto pred = And({Gt(If(Eq(Col("cat"), Lit("c0000")),
                         Mul(Col("key"), Lit(0.3048)), Col("key")),
                      Lit(150000)),
                   Like(Col("cat"), "c0%")});
  (void)BindExpr(pred, table->schema());
  return pred;
}

void BM_RangeAnalysisSimple(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = SimplePredicate();
  const auto& stats = table->partition_metadata(42).all_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzePredicate(*pred, stats));
  }
}
BENCHMARK(BM_RangeAnalysisSimple);

void BM_RangeAnalysisComplex(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = ComplexPredicate();
  const auto& stats = table->partition_metadata(42).all_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzePredicate(*pred, stats));
  }
}
BENCHMARK(BM_RangeAnalysisComplex);

void BM_FilterPrunerFullScanSet(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = SimplePredicate();
  for (auto _ : state) {
    FilterPruner pruner(pred);
    benchmark::DoNotOptimize(pruner.Prune(*table, table->FullScanSet()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(table->num_partitions()));
}
BENCHMARK(BM_FilterPrunerFullScanSet);

void BM_PruningTreeAdaptive(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = ComplexPredicate();
  PruningTreeConfig cfg;
  cfg.enable_reorder = state.range(0) != 0;
  PruningTree tree(pred, cfg);
  size_t pid = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Evaluate(table->partition_metadata(
                             static_cast<PartitionId>(pid)).all_stats()));
    pid = (pid + 1) % table->num_partitions();
  }
}
BENCHMARK(BM_PruningTreeAdaptive)->Arg(0)->Arg(1);

void BM_SummaryBuild(benchmark::State& state) {
  Rng rng(5);
  SummaryBuilder builder;
  for (int i = 0; i < 10000; ++i) {
    builder.Add(Value(rng.UniformInt(0, 1000000)));
  }
  auto kind = static_cast<SummaryKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Build(kind, 1024));
  }
}
BENCHMARK(BM_SummaryBuild)
    ->Arg(static_cast<int>(SummaryKind::kMinMax))
    ->Arg(static_cast<int>(SummaryKind::kRangeSet))
    ->Arg(static_cast<int>(SummaryKind::kBloom));

void BM_SummaryProbePartition(benchmark::State& state) {
  Rng rng(6);
  SummaryBuilder builder;
  for (int i = 0; i < 10000; ++i) {
    builder.Add(Value(rng.UniformInt(0, 1000000)));
  }
  auto summary = builder.Build(SummaryKind::kRangeSet, 1024);
  Value lo(int64_t{500000}), hi(int64_t{501000});
  for (auto _ : state) {
    benchmark::DoNotOptimize(summary->MayContainInRange(lo, hi));
  }
}
BENCHMARK(BM_SummaryProbePartition);

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "Marked-North-West-Ridge";
  std::string pattern = "Marked-%-Ridge";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatch);

// ---------------------------------------------------------------------------
// The ColumnBatch hot path: unboxed scan/filter/aggregate vs the boxed
// equivalents it replaced.
// ---------------------------------------------------------------------------

/// The cost the unboxed path avoids: boxing every value of a partition into
/// Rows (what TableScanOp did per partition before ColumnBatch).
void BM_MaterializePartitionBoxed(benchmark::State& state) {
  auto table = BenchTable();
  const MicroPartition& part = table->partition_metadata(42);
  ColumnBatch columns = ColumnBatch::AllOf(part, 42);
  for (auto _ : state) {
    Batch batch = columns.Materialize(false);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_MaterializePartitionBoxed);

/// Row-at-a-time predicate evaluation over boxed values (the old filter).
void BM_FilterPartitionScalar(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = state.range(0) == 0 ? SimplePredicate() : ComplexPredicate();
  const MicroPartition& part = table->partition_metadata(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalPredicateMask(*pred, part));
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_FilterPartitionScalar)->Arg(0)->Arg(1);

/// Vectorized selection-vector fill (the ColumnBatch filter). Arg 1 is the
/// §3 guiding-example shape whose IF/arithmetic terms take the scalar
/// fallback — the gap between Arg 0 and Arg 1 shows what vectorization
/// buys on the shapes it covers.
void BM_FilterPartitionVectorized(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = state.range(0) == 0 ? SimplePredicate() : ComplexPredicate();
  const MicroPartition& part = table->partition_metadata(42);
  std::vector<uint32_t> selection;
  for (auto _ : state) {
    ComputeSelection(*pred, part, &selection);
    benchmark::DoNotOptimize(selection);
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_FilterPartitionVectorized)->Arg(0)->Arg(1);

/// Typed arithmetic lanes (PR 4): a pure-arithmetic comparison that used to
/// take the per-row scalar fallback. Arg 0 = vectorized ComputeSelection,
/// Arg 1 = the brute-force scalar oracle it replaced on this shape.
void BM_ArithCompare(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = Gt(Add(Mul(Col("key"), Lit(int64_t{3})), Col("key")),
                 Lit(int64_t{500000}));
  (void)BindExpr(pred, table->schema());
  const MicroPartition& part = table->partition_metadata(42);
  std::vector<uint32_t> selection;
  EvalScratch scratch;
  for (auto _ : state) {
    if (state.range(0) == 0) {
      ComputeSelection(*pred, part, &selection, &scratch);
      benchmark::DoNotOptimize(selection);
    } else {
      benchmark::DoNotOptimize(EvalPredicateMask(*pred, part));
    }
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_ArithCompare)->Arg(0)->Arg(1);

/// The arith_filter shape against its ceiling. Arg 0 = the vectorized
/// interpreter (identical to BM_ArithCompare/0), Arg 1 = a hand-written raw
/// loop over the key column, decoded through WithInt64s. The gap is the
/// interpreter's dispatch and lane-materialization cost on this shape.
void BM_FusedPredicate(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = Gt(Add(Mul(Col("key"), Lit(int64_t{3})), Col("key")),
                 Lit(int64_t{500000}));
  (void)BindExpr(pred, table->schema());
  const MicroPartition& part = table->partition_metadata(42);
  std::vector<uint32_t> selection;
  EvalScratch scratch;
  const uint32_t n = static_cast<uint32_t>(part.row_count());
  for (auto _ : state) {
    if (state.range(0) == 0) {
      ComputeSelection(*pred, part, &selection, &scratch);
    } else {
      selection.clear();
      WithInt64s(part.column(1), [&](auto key) {
        for (uint32_t r = 0; r < n; ++r) {
          if (key(r) * 3 + key(r) > 500000) selection.push_back(r);
        }
      });
    }
    benchmark::DoNotOptimize(selection);
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_FusedPredicate)->Arg(0)->Arg(1);

/// Vectorized IF as a value (the §3 guiding-example shape) — previously the
/// scalar fallback, now condition-split typed lanes.
void BM_IfValueCompare(benchmark::State& state) {
  auto table = BenchTable();
  auto pred = Gt(If(Eq(Col("cat"), Lit("c0000")),
                    Mul(Col("key"), Lit(0.3048)), Col("key")),
                 Lit(150000));
  (void)BindExpr(pred, table->schema());
  const MicroPartition& part = table->partition_metadata(42);
  std::vector<uint32_t> selection;
  EvalScratch scratch;
  for (auto _ : state) {
    ComputeSelection(*pred, part, &selection, &scratch);
    benchmark::DoNotOptimize(selection);
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_IfValueCompare);

/// Selection-aware AND: the first term decides almost every row FALSE, so
/// the expensive later terms (LIKE, arithmetic) now see only survivors.
/// Arg 0 = selective leading term, Arg 1 = same terms, unselective leader
/// (the worst case: selection-awareness saves nothing).
void BM_SelectiveAnd(benchmark::State& state) {
  auto table = BenchTable();
  auto selective = Between(Col("key"), Value(int64_t{100000}),
                           Value(int64_t{101000}));  // ~0.1% of the domain
  auto wide = Between(Col("key"), Value(int64_t{0}),
                      Value(int64_t{10000000}));  // everything
  auto pred = And({state.range(0) == 0 ? selective : wide,
                   Like(Col("cat"), "c0%"),
                   Gt(Mul(Col("key"), Lit(int64_t{2})), Lit(int64_t{150000}))});
  (void)BindExpr(pred, table->schema());
  const MicroPartition& part = table->partition_metadata(42);
  std::vector<uint32_t> selection;
  EvalScratch scratch;
  for (auto _ : state) {
    ComputeSelection(*pred, part, &selection, &scratch);
    benchmark::DoNotOptimize(selection);
  }
  state.SetItemsProcessed(state.iterations() * part.row_count());
}
BENCHMARK(BM_SelectiveAnd)->Arg(0)->Arg(1);

/// End-to-end hash join through the engine: columnar build + columnar
/// probe (PR 4), the full scan→join pipeline with no Materialize().
void BM_JoinProbeColumnar(benchmark::State& state) {
  TableGenConfig probe_cfg;
  probe_cfg.name = "probe";
  probe_cfg.num_partitions = 40;
  probe_cfg.rows_per_partition = 1000;
  probe_cfg.layout = Layout::kRandom;  // unprunable: pure probe cost
  probe_cfg.seed = 21;
  TableGenConfig build_cfg;
  build_cfg.name = "build";
  build_cfg.num_partitions = 2;
  build_cfg.rows_per_partition = 1500;
  build_cfg.seed = 22;
  Catalog catalog;
  if (!catalog.RegisterTable(SyntheticTable(probe_cfg)).ok()) return;
  if (!catalog.RegisterTable(SyntheticTable(build_cfg)).ok()) return;
  EngineConfig config;
  config.exec.num_threads = 1;
  Engine engine(&catalog, config);
  auto plan = JoinPlan(ScanPlan("probe"), ScanPlan("build"), "key", "key");
  for (auto _ : state) {
    auto result = engine.Execute(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 40 * 1000);
}
BENCHMARK(BM_JoinProbeColumnar);

/// End-to-end top-k through the engine over an unprunable layout: the heap
/// insert/boundary-reject path reads unboxed key cells (PR 4); only rows
/// entering the heap are boxed.
void BM_TopKInsertColumnar(benchmark::State& state) {
  TableGenConfig cfg;
  cfg.name = "topk_bench";
  cfg.num_partitions = 40;
  cfg.rows_per_partition = 1000;
  cfg.layout = Layout::kRandom;
  cfg.seed = 23;
  Catalog catalog;
  if (!catalog.RegisterTable(SyntheticTable(cfg)).ok()) return;
  EngineConfig config;
  config.exec.num_threads = 1;
  Engine engine(&catalog, config);
  auto plan = TopKPlan(ScanPlan("topk_bench"), "key", /*descending=*/true,
                       static_cast<int64_t>(state.range(0)));
  for (auto _ : state) {
    auto result = engine.Execute(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 40 * 1000);
}
BENCHMARK(BM_TopKInsertColumnar)->Arg(10)->Arg(1000);

/// End-to-end scan→filter→aggregate through the engine (the acceptance
/// workload: unboxed from storage to the partial-aggregate maps).
void BM_ScanFilterAggregate(benchmark::State& state) {
  TableGenConfig cfg;
  cfg.name = "agg_bench";
  cfg.num_partitions = 50;
  cfg.rows_per_partition = 1000;
  cfg.layout = Layout::kRandom;  // unprunable: pure execution cost
  cfg.num_categories = 16;
  cfg.seed = 13;
  Catalog catalog;
  if (!catalog.RegisterTable(SyntheticTable(cfg)).ok()) return;
  EngineConfig config;
  config.exec.num_threads = 1;
  Engine engine(&catalog, config);
  auto plan = AggregatePlan(
      ScanPlan("agg_bench", Gt(Col("key"), Lit(int64_t{100000}))), {"cat"},
      {AggPlanSpec{AggFunc::kCount, "", "n"},
       AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
       AggPlanSpec{AggFunc::kMin, "ts", "ts_min"},
       AggPlanSpec{AggFunc::kMax, "key", "key_max"}});
  for (auto _ : state) {
    auto result = engine.Execute(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * 50 * 1000);
}
BENCHMARK(BM_ScanFilterAggregate);

}  // namespace
}  // namespace snowprune

BENCHMARK_MAIN();
