#include "shard/shard_map.h"

#include <algorithm>

#include "common/check.h"

namespace snowprune {
namespace shard {

const char* ToString(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kRange: return "range";
    case ShardPolicy::kHash: return "hash";
  }
  return "?";
}

namespace {

/// Merges one partition's zone map into the shard's running summary. The
/// merged stats must admit every value any member admits: min/max widen
/// (NULL min/max means "no non-null values" and is skipped), null and row
/// counts sum, and a single member without stats poisons the whole shard's
/// summary (ColumnStats::ToInterval then yields Unknown — never prunable).
void MergeStats(const ColumnStats& in, ColumnStats* out) {
  if (!in.has_stats) out->has_stats = false;
  out->null_count += in.null_count;
  out->row_count += in.row_count;
  if (!in.min.is_null() &&
      (out->min.is_null() || Value::Compare(in.min, out->min) < 0)) {
    out->min = in.min;
  }
  if (!in.max.is_null() &&
      (out->max.is_null() || Value::Compare(in.max, out->max) > 0)) {
    out->max = in.max;
  }
}

}  // namespace

ShardMap ShardMap::Build(const Table& table, size_t num_shards,
                         ShardPolicy policy) {
  ShardMap map;
  map.table_instance_ = table.instance_id();
  map.dml_version_ = table.dml_version();
  num_shards = std::max<size_t>(1, num_shards);
  map.shards_.resize(num_shards);
  const size_t n = table.num_partitions();
  map.owner_.resize(n, 0);

  int64_t total_rows = 0;
  for (size_t pid = 0; pid < n; ++pid) {
    total_rows +=
        table.partition_metadata(static_cast<PartitionId>(pid)).row_count();
  }

  int64_t cum_rows = 0;
  for (size_t pid = 0; pid < n; ++pid) {
    size_t s = 0;
    switch (policy) {
      case ShardPolicy::kRange:
        // Row-count-balanced contiguous cut: place the partition by how far
        // through the table's total rows the range has come. Row-empty
        // tables (or all-empty prefixes) fall back to a count-based cut.
        s = total_rows > 0
                ? static_cast<size_t>((cum_rows * static_cast<int64_t>(
                                                      num_shards)) /
                                      total_rows)
                : (pid * num_shards) / std::max<size_t>(1, n);
        s = std::min(s, num_shards - 1);
        break;
      case ShardPolicy::kHash:
        s = static_cast<size_t>(
            (static_cast<uint64_t>(pid) * 2654435761ull) % num_shards);
        break;
    }
    map.owner_[pid] = static_cast<uint32_t>(s);
    Shard& shard = map.shards_[s];
    const MicroPartition& meta =
        table.partition_metadata(static_cast<PartitionId>(pid));
    shard.partitions.push_back(static_cast<PartitionId>(pid));
    shard.rows += meta.row_count();
    cum_rows += meta.row_count();
    if (shard.summary.empty()) {
      shard.summary.resize(table.schema().num_columns());
      for (auto& col : shard.summary) col.has_stats = true;
    }
    for (size_t c = 0; c < shard.summary.size(); ++c) {
      MergeStats(meta.stats(c), &shard.summary[c]);
    }
  }

  for (const Shard& s : map.shards_) {
    if (!s.partitions.empty()) ++map.assigned_;
  }

#if SNOW_DCHECK_IS_ON
  // Monotonicity audit: a shard's merged summary must be weaker-or-equal
  // than every member partition's zone map — the cross-shard pruning level
  // is only sound if the summary admits everything any member admits. A
  // violation here would surface as silently wrong results (a shard pruned
  // even though one of its partitions matched), so debug builds prove the
  // containment for every (partition, column) right after the build.
  for (size_t pid = 0; pid < n; ++pid) {
    const Shard& shard = map.shards_[map.owner_[pid]];
    const MicroPartition& meta =
        table.partition_metadata(static_cast<PartitionId>(pid));
    for (size_t c = 0; c < shard.summary.size(); ++c) {
      const ColumnStats& member = meta.stats(c);
      const ColumnStats& merged = shard.summary[c];
      if (!member.has_stats) {
        // A stats-less member must poison the summary (never prunable).
        SNOW_DCHECK(!merged.has_stats);
        continue;
      }
      if (!merged.has_stats) continue;  // poisoned by a sibling: weaker.
      if (!member.min.is_null()) {
        SNOW_DCHECK(!merged.min.is_null());
        SNOW_DCHECK_LE(Value::Compare(merged.min, member.min), 0);
      }
      if (!member.max.is_null()) {
        SNOW_DCHECK(!merged.max.is_null());
        SNOW_DCHECK_GE(Value::Compare(merged.max, member.max), 0);
      }
      SNOW_DCHECK_LE(member.null_count, merged.null_count);
      SNOW_DCHECK_LE(member.row_count, merged.row_count);
    }
  }
#endif

  return map;
}

}  // namespace shard
}  // namespace snowprune
