#ifndef SNOWPRUNE_EXEC_PARALLEL_PIPELINE_H_
#define SNOWPRUNE_EXEC_PARALLEL_PIPELINE_H_

#include <cstdint>

namespace snowprune {

/// Process-wide observability for the task-pipeline layer (the morsel
/// executor generalized beyond scans). A *stage task* is an
/// operator-installed per-morsel pipeline stage (join-build hashing, top-k
/// candidate filtering, sort-run building, aggregate folding) that ran on a
/// worker right after the morsel's partitions were scanned.
///
/// The counter is monotonic across the process lifetime, like
/// ColumnBatch::materialize_calls(): benches and tests snapshot before /
/// after a query to prove the parallel path actually executed (a
/// silently-serial regression shows up as a zero delta).
class PipelineCounters {
 public:
  static int64_t stage_tasks();
  static void IncStageTasks();
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_PARALLEL_PIPELINE_H_
