#ifndef SNOWPRUNE_CORE_PRUNING_TREE_H_
#define SNOWPRUNE_CORE_PRUNING_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/range_analysis.h"

namespace snowprune {

/// Tuning knobs for the adaptive pruning tree (§3.2).
struct PruningTreeConfig {
  /// Re-rank children of every connective node each N partition evaluations.
  bool enable_reorder = true;
  /// N above; also the cutoff re-check period. 0 means every evaluation,
  /// like 1.
  size_t reorder_interval = 64;

  /// Disable leaves that prune too little for their cost (§3.2, "filter
  /// pruning cutoff"). Only leaves directly under an AND (or the root) are
  /// eligible. Cutoff decisions are re-checked every reorder interval: a cut
  /// leaf is still evaluated on the last partition before each check, and
  /// comes back once those probes show it pays off again.
  bool enable_cutoff = false;
  /// Modeled cost of scanning one partition at execution time, in the same
  /// unit as leaf evaluation cost (nanoseconds). The default corresponds to
  /// "scanning a partition costs ~1ms of work"; leaves whose expected saved
  /// scan cost is below their own evaluation cost get cut off.
  double partition_scan_cost_ns = 1e6;
  /// Leaves are observed for this many evaluations before cutoff may fire
  /// (counted since the leaf was last enabled).
  size_t cutoff_min_observations = 32;
};

/// Per-node adaptivity counters (§3.2: "Snowflake tracks the pruning ratio
/// and evaluation time for each node in the pruning tree").
struct PruneNodeMetrics {
  int64_t evaluations = 0;
  int64_t decisive = 0;   ///< AND child: outcomes proving "prunable";
                          ///< OR child: outcomes preventing pruning.
  int64_t time_ns = 0;
  /// Cut off; behaves as "keep everything" except on re-check probes. The
  /// counters above restart whenever this flips, so each cutoff decision
  /// rests only on what the leaf did in its current state.
  bool disabled = false;

  double DecisiveRate() const {
    return evaluations == 0
               ? 0.0
               : static_cast<double>(decisive) / static_cast<double>(evaluations);
  }
  double AvgTimeNs() const {
    return evaluations == 0
               ? 1.0
               : static_cast<double>(time_ns) / static_cast<double>(evaluations);
  }
};

/// A predicate tree prepared for partition pruning: inner nodes are AND/OR
/// connectives whose children may be freely re-ordered (Figure 3), leaves
/// are arbitrary pruning-capable predicates evaluated via range analysis.
///
/// The tree evaluates partitions' zone maps into BoolRange outcomes with
/// short-circuiting, records per-node pruning ratio and latency, adaptively
/// reorders children to put fast/decisive filters first, and can cut off
/// leaves whose modeled benefit no longer justifies their cost.
class PruningTree {
 public:
  /// `pruning_expr` should already have imprecise rewrites applied (it is
  /// used for pruning only, never for execution).
  PruningTree(ExprPtr pruning_expr, PruningTreeConfig config);
  ~PruningTree();

  PruningTree(PruningTree&&) noexcept;
  PruningTree& operator=(PruningTree&&) noexcept;

  /// Analyzes one partition's zone maps. Updates metrics; periodically
  /// reorders children and applies cutoff per the config.
  BoolRange Evaluate(const std::vector<ColumnStats>& stats);

  /// Number of leaves currently disabled by cutoff.
  size_t disabled_leaves() const;
  /// Total leaves.
  size_t num_leaves() const;
  /// Pre-order rendering with metrics, for debugging and the tree ablation.
  std::string DebugString() const;

  /// Visible-for-testing: current left-to-right leaf evaluation order
  /// (leaf predicates' ToString).
  std::vector<std::string> LeafOrder() const;

  /// Implementation node type; public so the .cc's free helpers can walk the
  /// tree, but not part of the supported API.
  struct Node;

 private:
  std::unique_ptr<Node> root_;
  PruningTreeConfig config_;
  int64_t evaluations_ = 0;

  BoolRange EvalNode(Node* node, const std::vector<ColumnStats>& stats,
                     bool probe);
  void ReorderNode(Node* node);
  void CutoffNode(Node* node, bool parent_is_and);
};

}  // namespace snowprune

#endif  // SNOWPRUNE_CORE_PRUNING_TREE_H_
