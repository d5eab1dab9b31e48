#include "storage/table.h"

#include <cassert>

#include "common/rng.h"

namespace snowprune {

uint64_t Table::NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int64_t Table::num_rows() const {
  int64_t total = 0;
  for (const auto& p : partitions_) total += p.row_count();
  return total;
}

size_t Table::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& p : partitions_) bytes += p.MemoryBytes();
  return bytes;
}

void Table::DeletePartition(PartitionId pid) {
  assert(pid < partitions_.size());
  partitions_.erase(partitions_.begin() + pid);
  ++dml_version_;
}

void Table::ReplacePartition(PartitionId pid, MicroPartition partition) {
  assert(pid < partitions_.size());
  partitions_[pid] = std::move(partition);
  ++dml_version_;
}

size_t Table::DropStatsOnFraction(double fraction, uint64_t seed) {
  Rng rng(seed);
  size_t dropped = 0;
  for (auto& p : partitions_) {
    if (rng.Bernoulli(fraction)) {
      p.DropStats();
      ++dropped;
    }
  }
  if (dropped > 0) ++dml_version_;
  return dropped;
}

size_t Table::BackfillMissingStats() {
  size_t backfilled = 0;
  for (size_t i = 0; i < partitions_.size(); ++i) {
    if (!partitions_[i].has_stats()) {
      // Backfilling requires reading the data: meter it as a load.
      ++load_count_;
      loaded_rows_ += partitions_[i].row_count();
      partitions_[i].RecomputeStats();
      ++backfilled;
    }
  }
  if (backfilled > 0) ++dml_version_;
  return backfilled;
}

TableBuilder::TableBuilder(std::string name, Schema schema,
                           size_t target_partition_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      target_partition_rows_(target_partition_rows) {
  assert(target_partition_rows_ > 0);
  table_ = std::make_shared<Table>(name_, schema_);
  open_columns_.reserve(schema_.num_columns());
  for (const auto& f : schema_.fields()) {
    open_columns_.emplace_back(f.type);
  }
}

Status TableBuilder::AppendRow(const std::vector<Value>& row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (!v.is_null()) {
      DataType expect = schema_.field(i).type;
      DataType got = v.type();
      bool ok = got == expect ||
                (expect == DataType::kFloat64 && got == DataType::kInt64);
      if (!ok) {
        return Status::InvalidArgument("type mismatch in column " +
                                       schema_.field(i).name);
      }
    } else if (!schema_.field(i).nullable) {
      return Status::InvalidArgument("NULL in non-nullable column " +
                                     schema_.field(i).name);
    }
  }
  for (size_t i = 0; i < row.size(); ++i) open_columns_[i].AppendValue(row[i]);
  if (++open_rows_ >= target_partition_rows_) CutPartition(true);
  return Status::OK();
}

void TableBuilder::CutPartition(bool more_rows_follow) {
  if (open_rows_ == 0) return;
  // The next partition is likely sized like this one, so its buffers are
  // allocated once at that size instead of regrown by doubling and copied
  // again when sealed. Its arenas are sized from this partition's string
  // bytes before sealing, since a dictionary holds fewer. They are
  // allocated right after sealing, so they can take whole the buffers the
  // new layouts freed, before any smaller allocation splits them into holes
  // nothing reuses.
  std::vector<size_t> arena_bytes;
  arena_bytes.reserve(open_columns_.size());
  for (const auto& col : open_columns_) {
    arena_bytes.push_back(col.string_bytes());
  }
  std::vector<ColumnVector> next;
  next.reserve(open_columns_.size());
  auto pid = static_cast<PartitionId>(table_->num_partitions());
  table_->AppendPartition(MicroPartition(pid, std::move(open_columns_)));
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    next.emplace_back(schema_.field(c).type);
    if (more_rows_follow) next.back().Reserve(open_rows_, arena_bytes[c]);
  }
  open_columns_ = std::move(next);
  open_rows_ = 0;
}

std::shared_ptr<Table> TableBuilder::Finish() {
  CutPartition(false);
  return table_;
}

}  // namespace snowprune
