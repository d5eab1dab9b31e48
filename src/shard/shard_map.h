#ifndef SNOWPRUNE_SHARD_SHARD_MAP_H_
#define SNOWPRUNE_SHARD_SHARD_MAP_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"

namespace snowprune {
namespace shard {

/// How a table's micro-partitions are placed onto shards.
enum class ShardPolicy {
  /// Contiguous partition-id ranges, balanced by (zone-map) row count.
  /// Partition ids follow ingestion order, so ranges are effectively time
  /// ranges — the natural warehouse placement, and the one that keeps each
  /// shard's merged zone maps tight on clustered/sorted layouts (which is
  /// what makes the cross-shard pruning level bite).
  kRange,
  /// Hash placement: partitions are scattered across shards by a multiplicative
  /// hash of their id. Balances load for any layout, at the cost of every
  /// shard's merged zone maps spanning the whole domain (little cross-shard
  /// pruning — the same trade Layout::kRandom makes at the partition level).
  kHash,
};

const char* ToString(ShardPolicy policy);

/// The shard map of one table version: which shard owns each micro-partition,
/// plus one merged zone map per shard — min of member mins, max of member
/// maxes, summed null/row counts, has_stats ANDed — so the coordinator can
/// exclude a whole shard with one metadata probe (the cross-shard pruning
/// level). Built from metadata only (no loads); a map is valid for exactly
/// the table version it was built from (see Describes) — after DML the
/// coordinator rebuilds it.
class ShardMap {
 public:
  static ShardMap Build(const Table& table, size_t num_shards,
                        ShardPolicy policy);

  size_t num_shards() const { return shards_.size(); }
  /// True while `table` is the version this map was built from: the same
  /// table object (ReplaceTable swaps it), the same DML version (in-place
  /// delete and replace bump it) and the same partition count (in-place
  /// appends grow it).
  bool Describes(const Table& table) const {
    return table_instance_ == table.instance_id() &&
           dml_version_ == table.dml_version() &&
           owner_.size() == table.num_partitions();
  }

  /// The shard owning `pid` (every partition is owned by exactly one shard).
  size_t shard_of(PartitionId pid) const { return owner_[pid]; }

  /// The shard's partitions, ascending by id. May be empty (more shards than
  /// partitions); empty shards are not assigned and never counted.
  const std::vector<PartitionId>& shard_partitions(size_t s) const {
    return shards_[s].partitions;
  }
  /// Merged zone maps over the shard's partitions, one ColumnStats per
  /// schema column. Empty for unassigned shards.
  const std::vector<ColumnStats>& shard_summary(size_t s) const {
    return shards_[s].summary;
  }
  /// Total (zone-map) rows across the shard's partitions.
  int64_t shard_rows(size_t s) const { return shards_[s].rows; }

  /// Shards with at least one partition.
  size_t assigned_shards() const { return assigned_; }

 private:
  struct Shard {
    std::vector<PartitionId> partitions;
    std::vector<ColumnStats> summary;
    int64_t rows = 0;
  };

  std::vector<Shard> shards_;
  std::vector<uint32_t> owner_;  ///< partition id -> shard index.
  uint64_t table_instance_ = 0;
  uint64_t dml_version_ = 0;
  size_t assigned_ = 0;
};

}  // namespace shard
}  // namespace snowprune

#endif  // SNOWPRUNE_SHARD_SHARD_MAP_H_
