#ifndef SNOWPRUNE_EXEC_PARALLEL_PARALLEL_SCAN_H_
#define SNOWPRUNE_EXEC_PARALLEL_PARALLEL_SCAN_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/pruning_stats.h"
#include "exec/column_batch.h"
#include "exec/parallel/thread_pool.h"

namespace snowprune {

/// The outcome of scanning one micro-partition within a morsel.
/// `loaded == false` means runtime pruning skipped the partition before it
/// touched storage; `stats` carries the per-partition pruning/scan deltas
/// either way, and is merged into the query's PruningStats by the consumer,
/// in scan-set order.
struct MorselItem {
  bool loaded = false;
  /// Rows the filter kept of the loaded partition (0 when not loaded).
  /// Recorded before any pipeline stage consumes the batch (the predicate
  /// cache's qualifying-partition record reads it on the fused-fold path
  /// too).
  int64_t kept_rows = 0;
  ColumnBatch batch;
  PruningStats stats;
  /// Optional per-partition output of an operator-installed pipeline stage
  /// (type-erased; producer and consumer agree on the concrete type —
  /// top-k candidate lists, sorted runs, join-build hash partials). Travels
  /// with the batch and is dropped with it if the consumer-side top-k
  /// boundary re-check discards the partition.
  std::shared_ptr<void> payload;
};

/// The outcome of processing one morsel: a consecutive run of scan-set
/// partitions (small partitions are batched up to a row budget so
/// post-pruning scan sets of many tiny partitions do not drown in
/// scheduling overhead). `items` holds one entry per scan-set position in
/// the morsel's range, in order.
struct MorselResult {
  std::vector<MorselItem> items;
  /// Optional worker-side reduction output (e.g. a partial aggregation
  /// state) folded over the morsel's loaded batches when a fold is
  /// installed; the batches themselves are then cleared.
  std::shared_ptr<void> payload;
  /// Worker-recorded trace spans for this morsel (traced queries only;
  /// stays empty otherwise). Recorded lock-free on the worker and merged
  /// into the query's Trace by the consumer when the morsel is delivered —
  /// the scheduler's existing hand-off is the only synchronization.
  SpanBuffer spans;
  /// Non-OK when the morsel failed instead of producing items (an injected
  /// dispatch fault, a partition-load error). The slot still completes
  /// normally — failure never stalls the in-order delivery window — and the
  /// consumer surfaces the first error after abandoning the rest of the
  /// scan.
  Status error;
};

/// Fans a post-pruning scan set out across a ThreadPool, morsel-style: each
/// morsel covers one or more consecutive micro-partitions. Results are
/// delivered to the (single) consumer strictly in scan-set order, which
/// keeps downstream operators — and therefore query results — bit-identical
/// to serial execution; only the loading, predicate evaluation, and optional
/// per-morsel reduction move off the consumer thread.
///
/// A bounded scheduling window (results buffered or in flight ahead of the
/// consumer) caps memory: morsel `i + window` is only submitted once morsel
/// `i` has been consumed.
///
/// Concurrency contract (compile-checked): every slot and cursor is
/// SNOW_GUARDED_BY(mutex_); `fn_` / `pool_` / `window_` / `num_morsels_`
/// are immutable after construction and shared read-only with the workers.
class ParallelScanScheduler {
 public:
  /// Processes morsel `index` (an index into the morsel list, not a
  /// partition id). Runs on pool workers; must be safe to call concurrently
  /// for distinct indexes.
  using MorselFn = std::function<MorselResult(size_t index)>;

  ParallelScanScheduler(ThreadPool* pool, size_t num_morsels, MorselFn fn,
                        size_t window);
  /// Cancels all unstarted morsels and waits for running ones.
  ~ParallelScanScheduler();

  ParallelScanScheduler(const ParallelScanScheduler&) = delete;
  ParallelScanScheduler& operator=(const ParallelScanScheduler&) = delete;

  /// Blocks until the next morsel (in scan-set order) completes and moves
  /// its result out. Returns false once every morsel has been consumed.
  bool Next(MorselResult* out) SNOW_EXCLUDES(mutex_);

  /// Cancellation path: stops submitting unscheduled morsels (already
  /// running ones finish). The consumer abandons the scan — per-query
  /// cancellation releases the query's share of the shared pool as soon as
  /// the in-flight window drains, instead of after the whole scan set.
  void Abandon() SNOW_EXCLUDES(mutex_);

  size_t num_morsels() const { return num_morsels_; }

 private:
  enum class SlotState : char { kUnscheduled, kScheduled, kDone };

  struct Slot {
    SlotState state = SlotState::kUnscheduled;
    MorselResult result;
  };

  /// Submits morsels while the window allows.
  void ScheduleLocked() SNOW_REQUIRES(mutex_);
  void RunMorsel(size_t index) SNOW_EXCLUDES(mutex_);

  ThreadPool* pool_;
  MorselFn fn_;
  size_t window_;
  size_t num_morsels_;

  Mutex mutex_;
  CondVar slot_done_;
  std::vector<Slot> slots_ SNOW_GUARDED_BY(mutex_);
  size_t next_to_schedule_ SNOW_GUARDED_BY(mutex_) = 0;
  size_t next_to_consume_ SNOW_GUARDED_BY(mutex_) = 0;
  /// Submitted but not yet finished tasks.
  size_t outstanding_ SNOW_GUARDED_BY(mutex_) = 0;
  bool cancelled_ SNOW_GUARDED_BY(mutex_) = false;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_PARALLEL_PARALLEL_SCAN_H_
