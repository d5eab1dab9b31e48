#ifndef SNOWPRUNE_CORE_TOPK_PRUNER_H_
#define SNOWPRUNE_CORE_TOPK_PRUNER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "storage/table.h"

namespace snowprune {

/// Partition processing-order strategies evaluated in §5.3 / Figure 8.
enum class OrderStrategy {
  kNone,      ///< Arrival order (the scan set as produced upstream).
  kRandom,    ///< Explicitly randomized (the paper's "no sorting" baseline).
  kFullSort,  ///< Sort all partitions by max (DESC) / min (ASC) of the key.
};

const char* ToString(OrderStrategy strategy);

/// Upfront boundary initialization strategies (§5.4).
enum class BoundaryInitMode {
  kNone,
  kKthMax,         ///< k-th largest max over fully-matching partitions.
  kCumulativeMin,  ///< Largest min whose cumulative row count reaches k.
  kStricter,       ///< The stricter of the two (paper: "whichever yields a
                   ///< stricter boundary").
};

const char* ToString(BoundaryInitMode mode);

struct TopKPrunerConfig {
  int64_t k = 10;
  bool descending = true;  ///< ORDER BY <key> DESC LIMIT k.
  OrderStrategy order_strategy = OrderStrategy::kFullSort;
  BoundaryInitMode boundary_init = BoundaryInitMode::kStricter;
  uint64_t shuffle_seed = 7;  ///< For OrderStrategy::kRandom.
  /// Whether heap-driven boundary updates may skip ties. True for plain
  /// top-k (a tie cannot improve a full heap); must be false for the GROUP
  /// BY shape of Figure 7d, where rows tying with the k-th group key still
  /// contribute to that group's aggregates. False also makes Prepare()'s
  /// boundary initialization count groups instead of rows: k-th max over
  /// distinct extremes only, cumulative-min not at all.
  bool inclusive_updates = true;
};

/// Runtime top-k pruning (§5): tracks the boundary value (the k-th best row
/// seen so far, published by the TopK operator) and decides, per partition,
/// whether its zone map proves no row can improve the heap.
///
/// Rows whose order key is NULL never qualify for the top-k heap (the engine
/// excludes NULL keys from results); partitions whose key column is entirely
/// NULL are therefore always skippable.
///
/// Thread safety: ShouldSkip() and UpdateBoundary() may race — under
/// partition-parallel execution, scan workers consult the boundary while the
/// consumer thread tightens it — and every boundary access synchronizes on an
/// internal mutex (compile-checked: boundary_ and inclusive_ are
/// SNOW_GUARDED_BY(boundary_mutex_)). A worker may observe a slightly stale
/// boundary; that only delays a skip, never causes one that serial execution
/// would reject. Prepare() itself is single-threaded (start of scan, before
/// workers exist), but still publishes the initialized boundary under the
/// lock.
class TopKPruner {
 public:
  TopKPruner(TopKPrunerConfig config, size_t order_column);

  /// Compile/start-of-scan step: applies the processing-order strategy to
  /// the scan set and initializes the boundary from fully-matching
  /// partitions (§5.4). `fully_matching` may be empty.
  ScanSet Prepare(const Table& table, const ScanSet& scan_set,
                  const std::vector<PartitionId>& fully_matching)
      SNOW_EXCLUDES(boundary_mutex_);

  /// Runtime check executed before loading a partition (§5.2): true when the
  /// partition's min/max for the order column proves no row would enter the
  /// current top-k heap.
  bool ShouldSkip(const Table& table, PartitionId pid) const
      SNOW_EXCLUDES(boundary_mutex_);

  /// Called by the TopK operator whenever the heap is full and its weakest
  /// element changed; `v` is the k-th best value. Boundary updates only ever
  /// tighten: a looser value than the current boundary is ignored.
  void UpdateBoundary(const Value& v) SNOW_EXCLUDES(boundary_mutex_);

  /// Snapshot of the current boundary (by value: the stored boundary can be
  /// tightened concurrently, so a reference would be a use-after-publish
  /// hazard). Callers needing the value more than once should take one
  /// snapshot, not call repeatedly.
  std::optional<Value> boundary() const SNOW_EXCLUDES(boundary_mutex_) {
    MutexLock lock(&boundary_mutex_);
    return boundary_;
  }
  /// True once the boundary comes from a full heap: ties can then be skipped
  /// as well. Initialization-derived boundaries are exclusive (a tie may
  /// still be needed to fill the heap).
  bool boundary_inclusive() const SNOW_EXCLUDES(boundary_mutex_) {
    MutexLock lock(&boundary_mutex_);
    return inclusive_;
  }

  const TopKPrunerConfig& config() const { return config_; }

 private:
  /// True if `candidate` is a stricter boundary than `current` under the
  /// configured sort direction.
  bool Stricter(const Value& candidate, const Value& current) const;

  TopKPrunerConfig config_;
  size_t order_column_;
  mutable Mutex boundary_mutex_;
  std::optional<Value> boundary_ SNOW_GUARDED_BY(boundary_mutex_);
  bool inclusive_ SNOW_GUARDED_BY(boundary_mutex_) = false;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_CORE_TOPK_PRUNER_H_
