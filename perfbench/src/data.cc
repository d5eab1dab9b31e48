// Ingestion through storage's build path. The inputs come from the
// repository's own generator (workload::SyntheticTable), untimed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench.h"
#include "storage/table.h"

namespace perfbench {

using snowprune::MicroPartition;
using snowprune::PartitionId;
using snowprune::TableBuilder;

namespace {

void Append(TableBuilder* builder, const Row& row) {
  if (!builder->AppendRow(row).ok()) {
    std::fprintf(stderr, "perfbench: AppendRow rejected a generated row\n");
    std::exit(3);
  }
}

}  // namespace

std::string CategoryName(size_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "c%04zu", index);
  return buf;
}

std::shared_ptr<Table> Ingest(const Table& source) {
  const size_t per_partition =
      source.num_partitions() == 0
          ? 1
          : static_cast<size_t>(source.partition_metadata(0).row_count());
  TableBuilder builder(source.name(), source.schema(), per_partition);
  Row row(source.schema().fields().size());
  for (size_t p = 0; p < source.num_partitions(); ++p) {
    const MicroPartition& part =
        source.partition_metadata(static_cast<PartitionId>(p));
    for (size_t i = 0; i < static_cast<size_t>(part.row_count()); ++i) {
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = part.column(c).ValueAt(i);
      }
      Append(&builder, row);
    }
  }
  return builder.Finish();
}

std::shared_ptr<Table> Ingest(const Batch& batch) {
  TableBuilder builder(batch.table, batch.schema,
                       std::max<size_t>(1, batch.rows.size()));
  for (const Row& row : batch.rows) Append(&builder, row);
  return builder.Finish();
}

}  // namespace perfbench
