#ifndef SNOWPRUNE_EXEC_BATCH_H_
#define SNOWPRUNE_EXEC_BATCH_H_

#include <vector>

#include "common/value.h"
#include "storage/partition.h"

namespace snowprune {

/// A unit of data flow: the rows surviving one partition scan (or produced
/// by a pipeline breaker). `source` optionally carries per-row provenance
/// (originating micro-partition), consumed by the top-k predicate cache
/// (§8.2); operators that cannot preserve provenance emit it empty.
struct Batch {
  std::vector<Row> rows;
  std::vector<PartitionId> source;

  size_t num_rows() const { return rows.size(); }
  bool has_source() const { return source.size() == rows.size(); }
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_BATCH_H_
