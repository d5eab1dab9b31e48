#ifndef SNOWPRUNE_STORAGE_TABLE_H_
#define SNOWPRUNE_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "storage/partition.h"
#include "storage/scan_set.h"
#include "storage/schema.h"

namespace snowprune {

/// A table: a schema plus an ordered list of immutable micro-partitions.
///
/// Data access goes through LoadPartition(), which meters "loads" — the
/// stand-in for network IO against cloud object storage in the paper's
/// decoupled compute/storage architecture. Metadata access (stats()) is
/// free, modeling the dedicated metadata store.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        instance_id_(NextInstanceId()) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Process-unique identity of this table *object*. A replacement table
  /// (Catalog::ReplaceTable, CREATE OR REPLACE) is a new object with a new
  /// id even under the same name; consumers caching per-version state (the
  /// predicate cache) validate against it so a swapped table can never be
  /// served another version's cached scan sets.
  uint64_t instance_id() const { return instance_id_; }

  size_t num_partitions() const { return partitions_.size(); }
  int64_t num_rows() const;
  /// Heap bytes held by every partition's column buffers (capacities).
  size_t MemoryBytes() const;

  /// Metadata-store access: zone map of (partition, column). Never counts
  /// as a load. Partition ids are dense positions that DML compaction
  /// re-assigns, so a stale id (a scan set outliving a DELETE) is a real
  /// bug class — debug builds bound-check every metadata and data access.
  const ColumnStats& stats(PartitionId pid, size_t column) const {
    SNOW_DCHECK_LT(static_cast<size_t>(pid), partitions_.size());
    return partitions_[pid].stats(column);
  }
  const MicroPartition& partition_metadata(PartitionId pid) const {
    SNOW_DCHECK_LT(static_cast<size_t>(pid), partitions_.size());
    return partitions_[pid];
  }

  /// Data access: returns the partition and increments the load meter.
  /// Safe to call from concurrent scan workers (the meters are atomic;
  /// partitions themselves are immutable during execution).
  const MicroPartition& LoadPartition(PartitionId pid) const {
    SNOW_DCHECK_LT(static_cast<size_t>(pid), partitions_.size());
    load_count_.fetch_add(1, std::memory_order_relaxed);
    loaded_rows_.fetch_add(partitions_[pid].row_count(),
                           std::memory_order_relaxed);
    return partitions_[pid];
  }

  /// Number of partition loads since the last ResetMeters().
  int64_t load_count() const {
    return load_count_.load(std::memory_order_relaxed);
  }
  int64_t loaded_rows() const {
    return loaded_rows_.load(std::memory_order_relaxed);
  }
  void ResetMeters() const {
    load_count_.store(0, std::memory_order_relaxed);
    loaded_rows_.store(0, std::memory_order_relaxed);
  }

  /// Appends a partition (INSERT path; partitions are immutable once added).
  void AppendPartition(MicroPartition partition) {
    partitions_.push_back(std::move(partition));
  }

  /// Deletes a whole partition (coarse DELETE used by the predicate-cache
  /// invalidation experiments, §8.2). Remaining ids are re-assigned densely.
  void DeletePartition(PartitionId pid);

  /// Replaces a partition's contents (coarse UPDATE, §8.2).
  void ReplacePartition(PartitionId pid, MicroPartition partition);

  /// A monotonically increasing counter bumped by every in-place DML
  /// operation except an append (which grows num_partitions() instead) and
  /// by every zone-map drop or backfill; consumers (the predicate cache,
  /// the shard coordinator's shard maps) use it to detect staleness.
  uint64_t dml_version() const { return dml_version_; }

  /// Simulates external files without metadata on a fraction of partitions
  /// (§8.1). Returns the number of partitions whose stats were dropped.
  size_t DropStatsOnFraction(double fraction, uint64_t seed);

  /// Backfills missing zone maps via full scans of the affected partitions
  /// (§8.1); each backfilled partition counts as one load. Returns how many
  /// partitions were backfilled.
  size_t BackfillMissingStats();

  ScanSet FullScanSet() const { return ScanSet::AllOf(partitions_.size()); }

 private:
  static uint64_t NextInstanceId();

  std::string name_;
  Schema schema_;
  uint64_t instance_id_;
  std::vector<MicroPartition> partitions_;
  uint64_t dml_version_ = 0;
  mutable std::atomic<int64_t> load_count_{0};
  mutable std::atomic<int64_t> loaded_rows_{0};
};

/// Builds a table row-by-row, cutting micro-partitions at a target row count
/// (the analog of Snowflake's 50-500 MB micro-partition sizing) and
/// computing zone maps for each cut.
class TableBuilder {
 public:
  TableBuilder(std::string name, Schema schema, size_t target_partition_rows);

  /// Appends one row; `row` must have one Value per schema column with a
  /// matching type (or NULL). The whole row is validated before any column
  /// is touched, so a rejected row leaves the open partition unchanged.
  Status AppendRow(const std::vector<Value>& row);

  /// Flushes the trailing partial partition and returns the table.
  std::shared_ptr<Table> Finish();

 private:
  /// Seals the open partition. When `more_rows_follow`, the next open
  /// partition's buffers are reserved at the sealed one's size.
  void CutPartition(bool more_rows_follow);

  std::string name_;
  Schema schema_;
  size_t target_partition_rows_;
  std::vector<ColumnVector> open_columns_;
  size_t open_rows_ = 0;
  std::shared_ptr<Table> table_;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_STORAGE_TABLE_H_
