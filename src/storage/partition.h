#ifndef SNOWPRUNE_STORAGE_PARTITION_H_
#define SNOWPRUNE_STORAGE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"
#include "storage/schema.h"

namespace snowprune {

/// Identifier of a micro-partition within its table.
using PartitionId = uint32_t;

/// An immutable horizontal slice of a table (Snowflake micro-partition /
/// Parquet row-group analog) in PAX layout: all columns for a contiguous
/// range of rows, plus per-column zone maps.
///
/// The zone maps (`stats`) live logically in the metadata store and may be
/// consulted without "loading" the partition; accessing `columns` counts as
/// a load (metered by the owning Table) to model decoupled storage IO.
class MicroPartition {
 public:
  /// Seals `columns` (all of one length) into a partition: releases their
  /// spare capacity, compresses each (ColumnVector::Seal picks its layout)
  /// and computes the zone maps.
  MicroPartition(PartitionId id, std::vector<ColumnVector> columns);

  PartitionId id() const { return id_; }
  int64_t row_count() const { return static_cast<int64_t>(row_count_); }
  size_t num_columns() const { return columns_.size(); }

  const ColumnVector& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnVector>& columns() const { return columns_; }

  /// Zone map for column i. If metadata was dropped (external file without
  /// statistics, §8.1) the returned stats have has_stats == false.
  const ColumnStats& stats(size_t i) const { return stats_[i]; }
  const std::vector<ColumnStats>& all_stats() const { return stats_; }
  bool has_stats() const { return has_stats_; }

  /// Heap bytes held by the partition's column buffers.
  size_t MemoryBytes() const;

  /// Simulates an external file that carries no metadata (§8.1).
  void DropStats();

  /// Reconstructs zone maps by scanning the data — the "backfill" path for
  /// data lakes (§8.1). The caller is responsible for metering the scan.
  void RecomputeStats();

 private:
  PartitionId id_;
  size_t row_count_;
  std::vector<ColumnVector> columns_;
  std::vector<ColumnStats> stats_;
  bool has_stats_ = true;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_STORAGE_PARTITION_H_
