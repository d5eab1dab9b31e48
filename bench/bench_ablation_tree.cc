/// Ablation for §3.2: adaptive filter reordering and pruning cutoff.
/// Grid {reorder on/off} x {cutoff on/off} over a population with skewed
/// per-leaf cost and selectivity. Exits 1 when, at equal reorder setting,
/// cutoff-on pruning falls below 0.9 x cutoff-off pruning: the clustered
/// table's first partitions all match, so a cutoff that could not be undone
/// would lose the selective leaf for good.
#include <chrono>

#include "bench_util.h"
#include "core/filter_pruner.h"
#include "expr/builder.h"
#include "workload/table_gen.h"

using namespace snowprune;           // NOLINT
using namespace snowprune::bench;    // NOLINT
using namespace snowprune::workload; // NOLINT

namespace {

double NowMs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() /
         1e6;
}

}  // namespace

int main() {
  Banner("Ablation §3.2", "Pruning-tree reordering and cutoff",
         "reordering promotes decisive leaves; cutoff disables useless ones");
  TableGenConfig tcfg;
  tcfg.name = "t";
  tcfg.num_partitions = 4000;
  tcfg.rows_per_partition = 50;
  tcfg.layout = Layout::kClustered;
  tcfg.seed = 32;
  auto table = SyntheticTable(tcfg);

  // Leaf 1: wide, useless range (never prunes, evaluated first by default).
  // Leaf 2: selective range (prunes most partitions).
  // Leaf 3: categorical equality via LIKE (string machinery, medium cost).
  auto predicate = And({Between(Col("key"), Value(int64_t{-1}),
                                Value(int64_t{2000000})),
                        Between(Col("key"), Value(int64_t{10000}),
                                Value(int64_t{30000})),
                        Like(Col("cat"), "c00%")});
  if (!BindExpr(predicate, table->schema()).ok()) return 1;

  std::printf("%-10s %-10s %12s %12s %10s %10s\n", "reorder", "cutoff",
              "prune-ratio", "time-ms", "leaves", "disabled");
  bool cutoff_kept_pruning = true;
  for (bool reorder : {false, true}) {
    double ratio_without_cutoff = 0.0;
    for (bool cutoff : {false, true}) {
      PruningTreeConfig cfg;
      cfg.enable_reorder = reorder;
      cfg.enable_cutoff = cutoff;
      cfg.reorder_interval = 64;
      cfg.cutoff_min_observations = 128;
      // Leaves must beat a cheap modeled scan to stay active.
      cfg.partition_scan_cost_ns = 500.0;
      FilterPruner pruner(predicate, cfg);
      double t0 = NowMs();
      FilterPruneResult result = pruner.Prune(*table, table->FullScanSet());
      double elapsed = NowMs() - t0;
      std::printf("%-10s %-10s %11.1f%% %12.2f %10zu %10zu\n",
                  reorder ? "on" : "off", cutoff ? "on" : "off",
                  100.0 * result.PruningRatio(), elapsed,
                  pruner.mutable_tree()->num_leaves(),
                  pruner.mutable_tree()->disabled_leaves());
      if (!cutoff) {
        ratio_without_cutoff = result.PruningRatio();
      } else if (result.PruningRatio() < 0.9 * ratio_without_cutoff) {
        cutoff_kept_pruning = false;
      }
    }
  }
  std::printf(
      "\nexpected: cutoff-on pruning within 10%% of cutoff-off at equal\n"
      "reorder setting (a cut leaf is probed every reorder interval and comes\n"
      "back once it pays off), with lower evaluation time when adaptivity is\n"
      "on.\n");
  if (!cutoff_kept_pruning) {
    std::printf("FAIL: cutoff lost more than 10%% of the pruning\n");
    return 1;
  }
  return 0;
}
