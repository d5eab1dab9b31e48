#ifndef SNOWPRUNE_EXEC_COLUMN_BATCH_H_
#define SNOWPRUNE_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/batch.h"
#include "storage/partition.h"

namespace snowprune {

/// The unboxed unit of data flow on the scan→filter→aggregate hot path: the
/// rows of one scanned micro-partition that survived the WHERE clause,
/// represented as the partition's own typed column vectors (borrowed, never
/// copied) plus an optional selection vector of surviving row indexes.
/// Provenance is the partition id itself, so the per-row `Batch::source`
/// tracking of the boxed path degenerates to a single value here.
///
/// Lifetime: the batch borrows the MicroPartition, which is owned by its
/// Table and immutable while a query executes (DML never runs concurrently
/// with execution in this engine); a ColumnBatch must not outlive the query
/// that produced it.
///
/// Operators that need boxed rows (join, top-k, project, plan boundaries)
/// convert through Materialize() — the single, well-tested adapter out of
/// the unboxed world — so the hot path never constructs a `Value` per row.
class ColumnBatch {
 public:
  ColumnBatch() = default;

  /// A batch covering every row of `partition` (no filter, or a filter the
  /// whole partition satisfies). No selection vector is allocated.
  /// `source` is the scan-set partition id — passed explicitly because
  /// MicroPartition::id() can go stale after DML compaction
  /// (Table::DeletePartition re-indexes positions, not stored ids).
  static ColumnBatch AllOf(const MicroPartition& partition,
                           PartitionId source) {
    ColumnBatch b;
    b.partition_ = &partition;
    b.source_ = source;
    b.select_all_ = true;
    return b;
  }

  /// A batch covering the rows of `partition` listed in `selection`
  /// (ascending physical row indexes).
  ///
  /// Everything downstream leans on the selection-vector contract —
  /// strictly ascending, in-bounds physical row indexes. Vectorized
  /// evaluators produce per-lane results positionally, Materialize preserves
  /// row order, and the top-k/sort replay paths assume batch row order
  /// equals physical row order. Debug builds verify the contract at this
  /// single entry point into the unboxed world.
  static ColumnBatch Selected(const MicroPartition& partition,
                              PartitionId source,
                              std::vector<uint32_t> selection) {
#if SNOW_DCHECK_IS_ON
    for (size_t i = 0; i < selection.size(); ++i) {
      SNOW_DCHECK_LT(static_cast<int64_t>(selection[i]),
                     partition.row_count());
      if (i > 0) SNOW_DCHECK_LT(selection[i - 1], selection[i]);
    }
#endif
    ColumnBatch b;
    b.partition_ = &partition;
    b.source_ = source;
    b.selection_ = std::move(selection);
    return b;
  }

  bool valid() const { return partition_ != nullptr; }
  const MicroPartition* partition() const { return partition_; }

  /// Provenance: the originating micro-partition (predicate cache, §8.2).
  PartitionId source() const { return source_; }

  size_t num_rows() const {
    if (partition_ == nullptr) return 0;
    return select_all_ ? static_cast<size_t>(partition_->row_count())
                       : selection_.size();
  }
  size_t num_columns() const {
    return partition_ == nullptr ? 0 : partition_->num_columns();
  }

  /// Physical row index (into the partition's columns) of logical row `i`.
  uint32_t row_index(size_t i) const {
    return select_all_ ? static_cast<uint32_t>(i) : selection_[i];
  }

  const ColumnVector& column(size_t c) const { return partition_->column(c); }

  bool select_all() const { return select_all_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

  void Clear() {
    partition_ = nullptr;
    source_ = 0;
    select_all_ = false;
    selection_.clear();
  }

  /// The boxed-row adapter: materializes the surviving rows into `out`
  /// (replacing its contents). With `track_source`, every row is tagged
  /// with this batch's partition id.
  void MaterializeInto(Batch* out, bool track_source) const;

  Batch Materialize(bool track_source = false) const {
    Batch out;
    MaterializeInto(&out, track_source);
    return out;
  }

  /// Boxes one physical row (all columns), appending to `out` — the bounded
  /// per-row escape hatch for operators that keep only a few rows boxed at
  /// a time (the top-k heap, join output assembly) instead of
  /// materializing every batch.
  void AppendRowValues(uint32_t r, Row* out) const;

  /// Process-wide count of MaterializeInto() calls. Tests assert the boxed
  /// adapter stays off the fully columnar pipelines (scan→aggregate,
  /// scan→join, scan→top-k, scan→sort): the count must not move while one
  /// of those plans executes.
  static int64_t materialize_calls();

 private:
  const MicroPartition* partition_ = nullptr;
  PartitionId source_ = 0;
  bool select_all_ = false;
  std::vector<uint32_t> selection_;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_COLUMN_BATCH_H_
