#include "core/filter_pruner.h"

#include "expr/range_analysis.h"
#include "expr/rewrite.h"

namespace snowprune {

FilterPruner::FilterPruner(ExprPtr predicate, PruningTreeConfig tree_config)
    : predicate_(std::move(predicate)) {
  if (!predicate_) return;
  prune_tree_.emplace(Simplify(RewriteForPruning(Simplify(predicate_))),
                      tree_config);
}

FilterPruneResult FilterPruner::Prune(const Table& table,
                                      const ScanSet& input) {
  FilterPruneResult result;
  result.input_partitions = static_cast<int64_t>(input.size());

  for (PartitionId pid : input) {
    const MicroPartition& meta = table.partition_metadata(pid);
    // No filter: keep everything; every partition is trivially fully
    // matching (§4.2).
    bool fully = true;
    if (predicate_) {
      // §3: drop partitions that cannot contain matching rows.
      if (meta.row_count() == 0 ||
          prune_tree_->Evaluate(meta.all_stats()).prunable()) {
        ++result.pruned;
        continue;
      }
      // §4.2: the pruning tree may have been widened by rewrites (and by
      // cutoff), so the kept partition is re-analyzed precisely.
      fully = AnalyzePredicate(*predicate_, meta.all_stats()).fully_matching();
    }
    result.scan_set.Add(pid);
    if (fully) {
      result.fully_matching.push_back(pid);
      result.fully_matching_rows += meta.row_count();
    }
  }
  return result;
}

bool FilterPruner::CanPruneFromStats(const std::vector<ColumnStats>& stats,
                                     int64_t row_count) {
  if (!predicate_) return false;
  if (row_count == 0) return true;
  return prune_tree_->Evaluate(stats).prunable();
}

}  // namespace snowprune
