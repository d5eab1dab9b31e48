#include "storage/partition.h"

#include "common/check.h"

namespace snowprune {

MicroPartition::MicroPartition(PartitionId id,
                               std::vector<ColumnVector> columns)
    : id_(id), columns_(std::move(columns)) {
  row_count_ = columns_.empty() ? 0 : columns_[0].size();
  for (const auto& col : columns_) SNOW_DCHECK_EQ(col.size(), row_count_);
  // Each column's zone map comes out of its seal. The replaced buffers are
  // freed on return, after every column is sealed (see ColumnVector::Seal).
  std::vector<ColumnVector::Replaced> replaced(columns_.size());
  stats_.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    stats_.push_back(columns_[c].Seal(&replaced[c]));
  }
}

size_t MicroPartition::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.MemoryBytes();
  return bytes;
}

void MicroPartition::DropStats() {
  has_stats_ = false;
  for (auto& s : stats_) {
    s = ColumnStats{};
    s.row_count = static_cast<int64_t>(row_count_);
  }
}

void MicroPartition::RecomputeStats() {
  stats_.clear();
  stats_.reserve(columns_.size());
  for (const auto& col : columns_) stats_.push_back(col.ComputeStats());
  has_stats_ = true;
}

}  // namespace snowprune
