#ifndef SNOWPRUNE_CORE_PRUNING_STATS_H_
#define SNOWPRUNE_CORE_PRUNING_STATS_H_

#include <cstdint>

#include "common/check.h"

namespace snowprune {

/// Pruning accounting: one per scan (its ledger, see ScanSource), and per
/// query as the sum of its scans' ledgers. Ratios are reported relative to
/// the total number of partitions the query would otherwise process (the
/// paper's Figure 4 convention).
struct PruningStats {
  int64_t total_partitions = 0;   ///< Before any pruning, all scans.
  int64_t pruned_by_filter = 0;   ///< §3 compile-time filter pruning.
  int64_t pruned_by_limit = 0;    ///< §4 LIMIT pruning.
  int64_t pruned_by_join = 0;     ///< §6 join pruning (probe side).
  int64_t pruned_by_topk = 0;     ///< §5 runtime top-k pruning.
  /// §8.2 predicate caching: partitions a cache entry proved hold no
  /// qualifying row (a scan entry) or no top-k winner (a top-k entry), so
  /// filter pruning never even looked at them.
  int64_t pruned_by_cache = 0;
  int64_t scanned_partitions = 0; ///< Actually loaded from storage.
  int64_t scanned_rows = 0;
  /// Partitions a parallel scan worker loaded ahead of the consumer that the
  /// serial engine would have skipped under its (later, tighter) top-k
  /// boundary. Such loads are *not* counted in scanned_partitions — the
  /// partition is accounted as pruned_by_topk, keeping every other counter
  /// identical to serial execution — but the wasted background work is worth
  /// observing. Always 0 when num_threads == 1.
  int64_t speculative_loads = 0;
  /// Cross-shard pruning level (sharded scatter-gather execution): shards a
  /// query's scans were assigned to, and how many of those were never
  /// contacted — excluded by the shard's merged zone maps, emptied by
  /// LIMIT/top-k pruning, or skippable under the initialized top-k boundary.
  /// Strictly additive on top of the per-partition counters above: a sharded
  /// run's partition-level stats stay byte-identical to a single-engine
  /// serial run, with the shard counters layered on. Always 0 for unsharded
  /// execution.
  int64_t shards_total = 0;
  int64_t shards_pruned = 0;

  double ShardRatio() const {
    if (shards_total == 0) return 0.0;
    return static_cast<double>(shards_pruned) /
           static_cast<double>(shards_total);
  }

  int64_t TotalPruned() const {
    return pruned_by_filter + pruned_by_limit + pruned_by_join +
           pruned_by_topk + pruned_by_cache;
  }

  /// Fraction of the query's partitions that were never loaded.
  double OverallRatio() const {
    if (total_partitions == 0) return 0.0;
    return static_cast<double>(TotalPruned()) /
           static_cast<double>(total_partitions);
  }

  double FilterRatio() const { return Ratio(pruned_by_filter); }
  double LimitRatio() const { return Ratio(pruned_by_limit); }
  double JoinRatio() const { return Ratio(pruned_by_join); }
  double TopKRatio() const { return Ratio(pruned_by_topk); }

  /// Debug-build soundness audit, called on every finished query's
  /// aggregated stats (engine and shard coordinator). The level counters
  /// can never exceed the work that existed: each pruning level claims
  /// distinct partitions, so their sum is bounded by the total, and scanned
  /// plus pruned cannot exceed the total either. (It may be *less* — a LIMIT
  /// that stops its scan early leaves the rest of the scan set neither
  /// scanned nor pruned, so equality would be a false alarm. A predicate-
  /// cache hit credits every partition outside its entry as
  /// pruned_by_cache, and a repeated LIMIT hits a k-sufficient entry, so the
  /// gap remains on a cache miss and, on a hit, only among the entry's own
  /// partitions and those appended since it was written.)
  /// Speculative loads are re-accounted top-k prunes, hence bounded by them;
  /// shard counters mirror the same containment one level up.
  void DCheckInvariants() const {
    SNOW_DCHECK_GE(total_partitions, 0);
    SNOW_DCHECK_GE(pruned_by_filter, 0);
    SNOW_DCHECK_GE(pruned_by_limit, 0);
    SNOW_DCHECK_GE(pruned_by_join, 0);
    SNOW_DCHECK_GE(pruned_by_topk, 0);
    SNOW_DCHECK_GE(pruned_by_cache, 0);
    SNOW_DCHECK_GE(scanned_partitions, 0);
    SNOW_DCHECK_GE(scanned_rows, 0);
    SNOW_DCHECK_GE(speculative_loads, 0);
    SNOW_DCHECK_LE(TotalPruned(), total_partitions);
    SNOW_DCHECK_LE(scanned_partitions + TotalPruned(), total_partitions);
    SNOW_DCHECK_LE(speculative_loads, pruned_by_topk);
    SNOW_DCHECK_GE(shards_total, 0);
    SNOW_DCHECK_GE(shards_pruned, 0);
    SNOW_DCHECK_LE(shards_pruned, shards_total);
  }

  void Merge(const PruningStats& other) {
    total_partitions += other.total_partitions;
    pruned_by_filter += other.pruned_by_filter;
    pruned_by_limit += other.pruned_by_limit;
    pruned_by_join += other.pruned_by_join;
    pruned_by_topk += other.pruned_by_topk;
    pruned_by_cache += other.pruned_by_cache;
    scanned_partitions += other.scanned_partitions;
    scanned_rows += other.scanned_rows;
    speculative_loads += other.speculative_loads;
    shards_total += other.shards_total;
    shards_pruned += other.shards_pruned;
  }

 private:
  double Ratio(int64_t pruned) const {
    if (total_partitions == 0) return 0.0;
    return static_cast<double>(pruned) / static_cast<double>(total_partitions);
  }
};

}  // namespace snowprune

#endif  // SNOWPRUNE_CORE_PRUNING_STATS_H_
