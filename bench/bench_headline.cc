/// Reproduces the headline numbers: 99.4% of micro-partitions pruned across
/// the platform (§1), and the per-technique averages for applicable queries
/// (§9: filter 99%, LIMIT 70%, top-k 77%, join 79%).
///
/// Also the engine's perf dashboard: a per-query-class ns/row section (the
/// residual execution cost pruning cannot remove) and the parallel sweep.
/// `--json[=PATH]` emits the measurements machine-readably so the perf
/// trajectory is tracked across PRs (BENCH_*.json); `--smoke` shrinks every
/// size for CI.
#include <chrono>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/trace.h"
#include "exec/engine.h"
#include "exec/parallel/pipeline.h"
#include "expr/builder.h"
#include "expr/evaluator.h"
#include "workload/query_gen.h"
#include "workload/simulator.h"

using namespace snowprune;           // NOLINT
using namespace snowprune::bench;    // NOLINT
using namespace snowprune::workload; // NOLINT

namespace {

/// The filters of the scan_filter and arith_filter classes (topk and sort
/// reuse the first).
ExprPtr ScanFilterPredicate() {
  return Between(Col("key"), Value(int64_t{100000}), Value(int64_t{900000}));
}
ExprPtr ArithFilterPredicate() {
  return Gt(Add(Mul(Col("key"), Lit(int64_t{3})), Col("ts")),
            Lit(int64_t{2000000}));
}

/// One measured query class: a fixed representative plan, timed serially
/// (best-of-N), normalized by the rows the execution layer actually chewed
/// through (scanned rows — what is left after pruning).
struct ClassPoint {
  const char* cls;
  double wall_ms = 0.0;
  int64_t scanned_rows = 0;
  int64_t result_rows = 0;

  double NsPerRow() const {
    return scanned_rows > 0 ? wall_ms * 1e6 / static_cast<double>(scanned_rows)
                            : 0.0;
  }
};

ClassPoint RunClass(Catalog* catalog, const char* cls, const PlanPtr& plan,
                    int reps, size_t trace_sample) {
  EngineConfig config;
  config.exec.num_threads = 1;  // single-thread ns/row: the kernel cost
  Engine engine(catalog, config);
  ClassPoint point;
  point.cls = cls;
  for (int rep = 0; rep < reps; ++rep) {
    // --trace-sample=N: rep i runs traced when i % N == 0 (fresh Trace per
    // rep, discarded after — the point is measuring the traced-path cost,
    // not keeping the spans).
    std::unique_ptr<Trace> trace;
    ExecuteOptions eopts;
    if (trace_sample > 0 && rep % static_cast<int>(trace_sample) == 0) {
      trace = std::make_unique<Trace>();
      eopts.trace = trace.get();
    }
    auto result = engine.Execute(plan, eopts);
    if (!result.ok()) {
      std::printf("class %s failed: %s\n", cls,
                  result.status().ToString().c_str());
      std::abort();
    }
    if (rep == 0 || result.value().wall_ms < point.wall_ms) {
      point.wall_ms = result.value().wall_ms;
    }
    point.scanned_rows = result.value().stats.scanned_rows;
    point.result_rows = static_cast<int64_t>(result.value().rows.size());
  }
  return point;
}

/// The operator-pipeline latency sweep: one plan per query class, all over
/// the random-layout probe table (worst case for pruning, so the number is
/// pure execution cost). Join/top-k/sort are the classes the fully columnar
/// pipeline (PR 4) targets; scan+agg is the PR 2 reference point.
std::vector<ClassPoint> ClassLatencySweep(Catalog* catalog, int reps,
                                          size_t trace_sample) {
  std::vector<ClassPoint> points;
  auto filter = ScanFilterPredicate();
  points.push_back(RunClass(catalog, "scan_filter",
                            ScanPlan("probe_random", filter), reps,
                            trace_sample));
  points.push_back(RunClass(
      catalog, "scan_agg",
      AggregatePlan(ScanPlan("probe_random"), {"cat"},
                    {AggPlanSpec{AggFunc::kCount, "", "n"},
                     AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
                     AggPlanSpec{AggFunc::kMin, "ts", "ts_min"},
                     AggPlanSpec{AggFunc::kMax, "key", "key_max"}}),
      reps, trace_sample));
  points.push_back(RunClass(catalog, "arith_filter",
                            ScanPlan("probe_random", ArithFilterPredicate()),
                            reps, trace_sample));
  points.push_back(RunClass(
      catalog, "join",
      JoinPlan(ScanPlan("probe_random"), ScanPlan("build_small"), "key",
               "key"),
      reps, trace_sample));
  points.push_back(RunClass(
      catalog, "topk",
      TopKPlan(ScanPlan("probe_random", filter), "key", /*descending=*/true,
               100),
      reps, trace_sample));
  points.push_back(RunClass(catalog, "sort",
                            SortPlan(ScanPlan("probe_random", filter), "key",
                                     /*descending=*/false),
                            reps, trace_sample));
  return points;
}

/// One filter predicate evaluated over every probe_random partition by the
/// vectorized interpreter (ComputeSelection) and by the scalar oracle
/// (EvalPredicateMask), passes alternating in one process, best of `reps`
/// each. tools/check_eval_gain.py gates the ratio.
struct EvalPoint {
  const char* cls;
  int64_t rows = 0;
  double vectorized_ns_per_row = 0.0;
  double scalar_ns_per_row = 0.0;
};

EvalPoint CompareEvaluators(const Table& table, const char* cls,
                            const ExprPtr& pred, int reps) {
  if (!BindExpr(pred, table.schema()).ok()) std::abort();
  EvalPoint point;
  point.cls = cls;
  EvalScratch scratch;
  std::vector<uint32_t> selection;
  double best_vectorized_ms = 0.0;
  double best_scalar_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    int64_t rows = 0;
    int64_t selected = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t pid = 0; pid < table.num_partitions(); ++pid) {
      const MicroPartition& part =
          table.partition_metadata(static_cast<PartitionId>(pid));
      ComputeSelection(*pred, part, &selection, &scratch);
      selected += static_cast<int64_t>(selection.size());
      rows += static_cast<int64_t>(part.row_count());
    }
    const auto t1 = std::chrono::steady_clock::now();
    int64_t matched = 0;
    for (size_t pid = 0; pid < table.num_partitions(); ++pid) {
      for (uint8_t m : EvalPredicateMask(
               *pred, table.partition_metadata(static_cast<PartitionId>(pid)))) {
        matched += m;
      }
    }
    const double vectorized_ms = MsBetween(t0, t1);
    const double scalar_ms = MsSince(t1);
    if (selected != matched) {
      std::printf("evaluators disagree on %s: %lld vs %lld rows\n", cls,
                  static_cast<long long>(selected),
                  static_cast<long long>(matched));
      std::abort();
    }
    if (rep == 0 || vectorized_ms < best_vectorized_ms) {
      best_vectorized_ms = vectorized_ms;
    }
    if (rep == 0 || scalar_ms < best_scalar_ms) best_scalar_ms = scalar_ms;
    point.rows = rows;
  }
  if (point.rows > 0) {
    point.vectorized_ns_per_row =
        best_vectorized_ms * 1e6 / static_cast<double>(point.rows);
    point.scalar_ns_per_row =
        best_scalar_ms * 1e6 / static_cast<double>(point.rows);
  }
  return point;
}

/// One point of the pipeline-parallel operator sweep: a join/top-k/sort
/// class at a given thread count.
struct ParallelClassPoint {
  const char* cls;
  int num_threads;
  double wall_ms = 0.0;
  int64_t scanned_rows = 0;

  double NsPerRow() const {
    return scanned_rows > 0 ? wall_ms * 1e6 / static_cast<double>(scanned_rows)
                            : 0.0;
  }
};

/// The PR 5 sweep: the three operators whose per-row work now runs as
/// pipeline stages on the scan workers (join build, top-k candidate
/// filter, sorted runs), measured at 1/2/4 threads. Results and
/// PruningStats are byte-identical across the sweep (asserted in the fuzz
/// oracle); this reports the wall-clock side.
std::vector<ParallelClassPoint> ParallelClassSweep(Catalog* catalog,
                                                   int reps,
                                                   size_t trace_sample) {
  auto filter = Between(Col("key"), Value(int64_t{100000}),
                        Value(int64_t{900000}));
  struct NamedPlan {
    const char* cls;
    PlanPtr plan;
  };
  const NamedPlan plans[] = {
      {"join", JoinPlan(ScanPlan("probe_random"), ScanPlan("build_small"),
                        "key", "key")},
      {"topk", TopKPlan(ScanPlan("probe_random", filter), "key",
                        /*descending=*/true, 100)},
      {"sort", SortPlan(ScanPlan("probe_random", filter), "key",
                        /*descending=*/false)},
  };
  std::vector<ParallelClassPoint> points;
  for (const NamedPlan& np : plans) {
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.exec.num_threads = threads;
      Engine engine(catalog, config);
      ParallelClassPoint point;
      point.cls = np.cls;
      point.num_threads = threads;
      for (int rep = 0; rep < reps; ++rep) {
        std::unique_ptr<Trace> trace;
        ExecuteOptions eopts;
        if (trace_sample > 0 && rep % static_cast<int>(trace_sample) == 0) {
          trace = std::make_unique<Trace>();
          eopts.trace = trace.get();
        }
        auto result = engine.Execute(np.plan, eopts);
        if (!result.ok()) {
          std::printf("parallel class %s failed: %s\n", np.cls,
                      result.status().ToString().c_str());
          std::abort();
        }
        if (rep == 0 || result.value().wall_ms < point.wall_ms) {
          point.wall_ms = result.value().wall_ms;
        }
        point.scanned_rows = result.value().stats.scanned_rows;
      }
      points.push_back(point);
    }
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = ParseOptions(argc, argv);
  Banner("Headline", "Global partition-weighted pruning ratio",
         "99.4%% of micro-partitions pruned across all customer workloads");
  auto catalog = StandardCatalog(opts.smoke ? 0.05 : 1.0);
  Engine engine(catalog.get());
  QueryGenerator::Config gcfg;
  gcfg.seed = 994;
  QueryGenerator gen(catalog.get(),
                     {"probe_sorted", "probe_sorted", "probe_clustered",
                      "probe_clustered", "probe_random"},
                     {"build_small", "build_tiny"}, ProductionModel(), gcfg);
  Simulator sim(&gen, &engine);
  SimulationResult r = sim.Run(opts.smoke ? 150 : 6000);

  std::printf("partitions considered: %lld\n",
              static_cast<long long>(r.total_partitions));
  std::printf("partitions pruned:     %lld\n",
              static_cast<long long>(r.total_pruned));
  std::printf("global pruning ratio:  %5.1f%%   (paper: 99.4%%)\n\n",
              100.0 * r.OverallPruningRatio());
  std::printf("%-34s %9s   %s\n", "technique (applicable queries)", "mean",
              "paper");
  std::printf("%-34s %8.1f%%   %s\n", "filter pruning (partition-weighted)",
              100.0 * r.FilterPartitionWeightedRatio(), "99%");
  std::printf("%-34s %8.1f%%   %s\n", "filter pruning (query mean, applied)",
              100.0 * r.filter_ratios_applied.Mean(), "-");
  std::printf("%-34s %8.1f%%   %s\n", "LIMIT pruning (applied)",
              100.0 * r.limit_ratios_applied.Mean(), "70%");
  std::printf("%-34s %8.1f%%   %s\n", "top-k pruning",
              100.0 * r.topk_ratios.Mean(), "77%");
  std::printf("%-34s %8.1f%%   %s\n", "join pruning",
              100.0 * r.join_ratios.Mean(), "79%");
  std::printf(
      "\nnote: the absolute global ratio tracks the share of full-scan\n"
      "(ETL-style) queries in the mix; the reproduced claim is that the\n"
      "population's high predicate selectivity plus clustered layouts push\n"
      "the partition-weighted ratio far above what TPC-H suggests\n"
      "(compare bench_fig13_tpch).\n");

  // --- Per-query-class execution cost ------------------------------------
  // Smoke still takes best-of-5: the class queries are microsecond-scale at
  // smoke size, and the CI trace-overhead gate compares two smoke runs, so
  // single-shot timings would be all scheduler noise.
  const int reps = 5;
  std::printf("\n%-14s %12s %12s %14s   (serial, best of %d)\n", "class",
              "wall ms", "ns/row", "scanned rows", reps);
  const std::vector<ClassPoint> classes =
      ClassLatencySweep(catalog.get(), reps, opts.trace_sample);
  for (const ClassPoint& p : classes) {
    std::printf("%-14s %12.2f %12.1f %14lld\n", p.cls, p.wall_ms,
                p.NsPerRow(), static_cast<long long>(p.scanned_rows));
  }

  // --- Vectorized interpreter vs scalar oracle ----------------------------
  // The filter classes' predicates straight through both evaluators, on
  // the same partitions, without the engine around them.
  const int eval_reps = 31;
  std::printf("\n%-14s %12s %12s %8s   (probe_random, best of %d)\n",
              "class", "vector ns", "scalar ns", "ratio", eval_reps);
  const auto probe = catalog->GetTable("probe_random");
  const EvalPoint evaluators[] = {
      CompareEvaluators(*probe, "scan_filter", ScanFilterPredicate(),
                        eval_reps),
      CompareEvaluators(*probe, "arith_filter", ArithFilterPredicate(),
                        eval_reps),
  };
  for (const EvalPoint& p : evaluators) {
    std::printf("%-14s %12.2f %12.2f %8.3f\n", p.cls, p.vectorized_ns_per_row,
                p.scalar_ns_per_row,
                p.vectorized_ns_per_row / p.scalar_ns_per_row);
  }

  // --- Pipeline-parallel operator sweep -----------------------------------
  // Join build / top-k filter / sort runs as worker-side pipeline stages;
  // "1" is the serial (poolless) baseline. Every row of the sweep returns
  // byte-identical rows and stats — only the wall clock may move.
  const int64_t stage_tasks_before = PipelineCounters::stage_tasks();
  std::printf("\n%-10s %12s %12s %12s   (pipeline-parallel operators, "
              "best of %d)\n",
              "class", "threads", "wall ms", "ns/row", reps);
  std::vector<ParallelClassPoint> parallel_classes =
      ParallelClassSweep(catalog.get(), reps, opts.trace_sample);
  for (const ParallelClassPoint& p : parallel_classes) {
    std::printf("%-10s %12d %12.2f %12.1f\n", p.cls, p.num_threads, p.wall_ms,
                p.NsPerRow());
  }
  // CI tripwire: the threaded runs above must have executed worker-side
  // pipeline stages. A silently-serial regression (stages not installed,
  // operators falling back to consumer-thread loops) fails the smoke run.
  if (PipelineCounters::stage_tasks() == stage_tasks_before) {
    std::printf("FATAL: no pipeline stage tasks ran during the parallel "
                "operator sweep — the pipeline-parallel path regressed to "
                "serial\n");
    return 1;
  }

  // --- Partition-parallel execution sweep ---------------------------------
  // The headline scan workload: what pruning cannot skip, the execution
  // layer must chew through. An unprunable scan+aggregate over the random-
  // layout probe table (every zone map spans the domain) is pure per-
  // partition work, fanned out by ExecConfig::num_threads.
  std::printf("\n%-14s %12s %12s   %s\n", "num_threads", "wall ms",
              "speedup", "headline scan workload (aggregate over"
              " probe_random)");
  auto scan_workload = AggregatePlan(
      ScanPlan("probe_random"), {"cat"},
      {AggPlanSpec{AggFunc::kCount, "", "n"},
       AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
       AggPlanSpec{AggFunc::kMin, "ts", "ts_min"},
       AggPlanSpec{AggFunc::kMax, "key", "key_max"}});
  struct SweepPoint {
    const char* label;
    int threads;
    bool force_parallel;
  };
  const SweepPoint sweep[] = {
      {"1 (serial)", 1, false},
      {"1 (parallel)", 1, true},  // full morsel machinery, one worker:
                                  // pure parallel-path overhead
      {"2", 2, false},
      {"4", 4, false},
      {"8", 8, false},
  };
  double serial_ms = 0.0;
  for (const SweepPoint& point : sweep) {
    EngineConfig config;
    config.exec.num_threads = point.threads;
    config.exec.force_parallel = point.force_parallel;
    Engine sweep_engine(catalog.get(), config);
    double best_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {  // best-of-3 to damp scheduler noise
      auto result = sweep_engine.Execute(scan_workload);
      if (!result.ok()) {
        std::printf("sweep failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      double ms = result.value().wall_ms;
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    if (serial_ms == 0.0) serial_ms = best_ms;
    std::printf("%-14s %12.1f %11.2fx\n", point.label, best_ms,
                serial_ms / best_ms);
  }
  std::printf(
      "(speedup tracks the machine's core count; \"1 (serial)\" is the\n"
      "bit-for-bit poolless path, \"1 (parallel)\" runs the morsel\n"
      "scheduler on a one-worker pool to expose pure scheduling overhead)\n");

  if (opts.json) {
    JsonWriter json;
    json.Key("bench").String("bench_headline");
    json.Key("smoke").Int(opts.smoke ? 1 : 0);
    json.Key("pruning").BeginObject();
    json.Key("global_ratio").Number(r.OverallPruningRatio());
    json.Key("filter_partition_weighted")
        .Number(r.FilterPartitionWeightedRatio());
    json.Key("filter_applied_mean").Number(r.filter_ratios_applied.Mean());
    json.Key("limit_applied_mean").Number(r.limit_ratios_applied.Mean());
    json.Key("topk_mean").Number(r.topk_ratios.Mean());
    json.Key("join_mean").Number(r.join_ratios.Mean());
    json.EndObject();
    json.Key("classes").BeginArray();
    for (const ClassPoint& p : classes) {
      json.BeginObject();
      json.Key("class").String(p.cls);
      json.Key("wall_ms").Number(p.wall_ms);
      json.Key("ns_per_row").Number(p.NsPerRow());
      json.Key("scanned_rows").Int(p.scanned_rows);
      json.Key("result_rows").Int(p.result_rows);
      json.EndObject();
    }
    json.EndArray();
    json.Key("evaluators").BeginArray();
    for (const EvalPoint& p : evaluators) {
      json.BeginObject();
      json.Key("class").String(p.cls);
      json.Key("rows").Int(p.rows);
      json.Key("vectorized_ns_per_row").Number(p.vectorized_ns_per_row);
      json.Key("scalar_ns_per_row").Number(p.scalar_ns_per_row);
      json.EndObject();
    }
    json.EndArray();
    json.Key("parallel_classes").BeginArray();
    for (const ParallelClassPoint& p : parallel_classes) {
      json.BeginObject();
      json.Key("class").String(p.cls);
      json.Key("num_threads").Int(p.num_threads);
      json.Key("wall_ms").Number(p.wall_ms);
      json.Key("ns_per_row").Number(p.NsPerRow());
      json.EndObject();
    }
    json.EndArray();
    json.Write(opts);
  }
  return 0;
}
