#ifndef SNOWPRUNE_CORE_FILTER_PRUNER_H_
#define SNOWPRUNE_CORE_FILTER_PRUNER_H_

#include <memory>
#include <vector>

#include "core/pruning_tree.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace snowprune {

/// Outcome of filter pruning one table scan.
struct FilterPruneResult {
  ScanSet scan_set;                         ///< Partially + fully matching.
  std::vector<PartitionId> fully_matching;  ///< Subset of scan_set (§4.2).
  int64_t fully_matching_rows = 0;
  int64_t input_partitions = 0;
  int64_t pruned = 0;

  double PruningRatio() const {
    if (input_partitions == 0) return 0.0;
    return static_cast<double>(pruned) / static_cast<double>(input_partitions);
  }
};

/// Min/max filter pruning (§3): evaluates a query predicate against each
/// partition's zone maps through an adaptive PruningTree and removes
/// partitions that provably contain no matching rows. Guarantees no false
/// negatives. A null predicate means "no filter": nothing is pruned and all
/// partitions are trivially fully matching.
///
/// Filter pruning runs once per scan, at compile time, in one pass: the
/// pruning tree (over the predicate with §3.1's imprecise rewrites) decides
/// what is kept, and one precise AnalyzePredicate of the original predicate
/// marks the kept partitions where every row matches (§4.2). The paper's
/// inverted two-pass classification — prune under "P IS NOT TRUE"
/// (BuildInvertedPredicate) with a cutoff-free PruningTree — finds the same
/// set; the tests keep it as the oracle for this one.
class FilterPruner {
 public:
  /// `predicate` must already be bound to the table's schema (BindExpr);
  /// it may be null for unfiltered scans.
  explicit FilterPruner(ExprPtr predicate, PruningTreeConfig tree_config = {});

  /// Prunes `input`, classifying every partition as not / partially / fully
  /// matching. Only metadata is accessed (no loads).
  FilterPruneResult Prune(const Table& table, const ScanSet& input);

  /// Evaluates the pruning tree against caller-supplied zone maps — the
  /// cross-shard pruning level feeds per-shard *merged* stats (min of mins,
  /// max of maxes, summed null/row counts) through this. Interval analysis
  /// is monotone in the stats interval: a merged zone map admits every value
  /// any member partition admits, so a prunable merge proves every member
  /// individually prunable — the whole shard can be excluded without
  /// touching its per-partition metadata. `row_count` is the merged total
  /// (all members empty ⇒ prunable, mirroring Prune's empty-partition rule).
  bool CanPruneFromStats(const std::vector<ColumnStats>& stats,
                         int64_t row_count);

  /// The adaptive tree for the pruning pass (null when predicate is null).
  PruningTree* mutable_tree() { return prune_tree_ ? &*prune_tree_ : nullptr; }

  const ExprPtr& predicate() const { return predicate_; }

 private:
  ExprPtr predicate_;
  std::optional<PruningTree> prune_tree_;  ///< Over the rewritten predicate.
};

}  // namespace snowprune

#endif  // SNOWPRUNE_CORE_FILTER_PRUNER_H_
