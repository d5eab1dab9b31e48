#ifndef SNOWPRUNE_EXEC_SCAN_OP_H_
#define SNOWPRUNE_EXEC_SCAN_OP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/filter_pruner.h"
#include "core/join_pruner.h"
#include "common/mutex.h"
#include "core/pruning_stats.h"
#include "core/topk_pruner.h"
#include "exec/column_batch.h"
#include "exec/operator.h"
#include "exec/parallel/parallel_scan.h"
#include "exec/parallel/thread_pool.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace snowprune {

namespace jit {
struct CompiledPredicate;
}  // namespace jit

/// What plan compilation needs of a scan-set leaf, whether it loads its
/// partitions (TableScanOp) or replays a scatter's answers for them
/// (GatherSourceOp): the scan set, which LIMIT pruning and top-k
/// preparation replace; the top-k pruner consulted before each partition;
/// the specialized filter program; the query's stats and their profile
/// mirror.
class ScanSource : public Operator {
 public:
  ScanSource(std::shared_ptr<Table> table, ScanSet scan_set,
             PruningStats* stats)
      : table_(std::move(table)),
        scan_set_(std::move(scan_set)),
        stats_(stats) {}

  /// Planner hook (§5): the TopK operator in the same pipeline publishes
  /// boundary updates through this pruner.
  void AttachTopKPruner(TopKPruner* pruner) { topk_pruner_ = pruner; }
  bool has_topk_pruner() const { return topk_pruner_ != nullptr; }
  TopKPruner* topk_pruner() const { return topk_pruner_; }

  /// Planner hook: replaces the scan set before execution (LIMIT pruning,
  /// top-k ordering/initialization).
  void ReplaceScanSet(ScanSet scan_set) { scan_set_ = std::move(scan_set); }
  const ScanSet& scan_set() const { return scan_set_; }
  const std::shared_ptr<Table>& table() const { return table_; }

  /// Engine hook (specialization tier): a bytecode program compiled from
  /// this scan's filter. Each batch tries the fused executor first and falls
  /// back to the vectorized interpreter when the program cannot run against
  /// it (column drift) — selections are byte-identical either way. Shared:
  /// the same program may be attached to many scans across streams/shards;
  /// a GatherSourceOp filters nothing itself and ships it to its shards.
  void set_compiled_filter(
      std::shared_ptr<const jit::CompiledPredicate> program) {
    compiled_filter_ = std::move(program);
  }
  const std::shared_ptr<const jit::CompiledPredicate>& compiled_filter() const {
    return compiled_filter_;
  }

  /// Profiling hook (traced queries only): a second PruningStats that
  /// receives exactly the runtime deltas this scan contributes to the
  /// query's stats_, attributed to this scan's profile node. Kept separate
  /// from stats_ so the untraced path's metering code is byte-unchanged.
  void set_profile_stats(PruningStats* stats) { profile_stats_ = stats; }

  const Schema& output_schema() const override { return table_->schema(); }

 protected:
  std::shared_ptr<Table> table_;
  ScanSet scan_set_;
  std::shared_ptr<const jit::CompiledPredicate> compiled_filter_;
  PruningStats* stats_;
  PruningStats* profile_stats_ = nullptr;
  TopKPruner* topk_pruner_ = nullptr;
};

/// Table scan over a (compile-time pruned) scan set. One output batch per
/// partition. Runtime pruning hooks:
///   - a TopKPruner attached by the planner is consulted before every load
///     (§5.2); skipped partitions never touch storage,
///   - a build-side summary installed by a hash join at Open() time prunes
///     the remaining scan set (§6.1, step 4).
/// The optional row-level `filter` is the query's WHERE clause; it runs
/// after the load (the part pruning could not avoid).
///
/// Data flow is unboxed: the scan's native output is a ColumnBatch — the
/// partition's own typed column vectors plus a selection vector filled by
/// vectorized predicate evaluation (NextColumns()). The Operator-interface
/// Next() materializes boxed rows through ColumnBatch::Materialize() for
/// consumers outside the scan→filter→aggregate hot path.
///
/// Parallel execution: when the engine attaches a ThreadPool via
/// EnableParallel(), Open() fans the scan set out across workers
/// morsel-style. A morsel covers one or more *consecutive* scan-set
/// partitions — small post-pruning partitions are batched until their
/// combined (metadata) row count reaches `morsel_min_rows`, so scheduling
/// overhead amortizes. Loading, predicate evaluation, runtime pruning
/// checks, and an optional per-morsel reduction run on workers; batches are
/// still delivered to the consumer in scan-set order, so every downstream
/// operator — and the query result — is bit-identical to serial execution.
/// Per-partition PruningStats are merged into the query's stats on the
/// consumer thread, in scan-set order.
///
/// One stats-parity exception: with runtime filter pruning AND the adaptive
/// tree's time-based cutoff opted in (PruningTreeConfig::enable_cutoff,
/// default off), CanPrune outcomes depend on wall-clock measurements, so
/// pruned_by_filter/scanned_partitions become timing-dependent under any
/// thread count — results stay correct (cutoff only ever keeps more
/// partitions), but exact stats parity is only guaranteed with the cutoff
/// at its default (disabled).
class TableScanOp : public ScanSource {
 public:
  /// A worker-side stage result (type-erased; producer and consumer agree
  /// on the concrete type, e.g. HashAggregateOp's partial group map, a
  /// top-k candidate list, a sorted run, a join-build hash partial).
  using MorselPayload = std::shared_ptr<void>;
  /// A per-morsel pipeline stage: runs on the worker that scanned the
  /// morsel, right after its partitions were loaded and filtered, and may
  /// attach per-item payloads (delivered with each batch), set the
  /// morsel-level payload (delivered via NextPayload), and/or clear item
  /// batches it fully consumed. Must be safe to run concurrently for
  /// distinct morsels and must not touch consumer-side state.
  using MorselStage = std::function<void(MorselResult*)>;

  TableScanOp(std::shared_ptr<Table> table, ScanSet scan_set, ExprPtr filter,
              PruningStats* stats);
  ~TableScanOp() override;

  /// Planner hook (§3.2): deferred filter pruning. When compile-time
  /// pruning was skipped (FilterPruningPhase::kRuntime), the scan checks
  /// each partition's zone maps right before loading it.
  void AttachRuntimeFilterPruner(FilterPruner* pruner) {
    runtime_filter_pruner_ = pruner;
  }

  /// Join hook (§6): prunes the not-yet-scanned part of the scan set with a
  /// freshly built summary. `key_column` indexes this scan's output schema.
  /// Returns the number of partitions pruned.
  int64_t ApplyJoinSummary(const BuildSummary& summary, size_t key_column);

  /// Predicate-cache hook (scan entries): from Open() on, note which
  /// partitions the filter kept at least one row of. The engine calls it
  /// right after compile-time filter pruning, while the scan set still holds
  /// every partition that may contain a qualifying row.
  void RecordQualifying() {
    record_qualifying_ = true;
    recorded_scan_set_size_ = scan_set_.size();
  }
  /// The partitions where the filter kept at least one row — provided the
  /// scan delivered the whole scan set it held at RecordQualifying(): none
  /// dropped from it later (LIMIT pruning, a join summary), none skipped at
  /// runtime (top-k boundary), no early stop (LIMIT, cancellation, deadline,
  /// load fault). nullopt otherwise. Read after the scan finished.
  std::optional<std::vector<PartitionId>> QualifyingPartitions() const;

  /// Emit per-row provenance (source partition ids) for the predicate cache
  /// when materializing boxed batches (NextColumns() always carries
  /// provenance — it is the batch's partition id).
  void set_track_source(bool track) { track_source_ = track; }

  /// EXPLAIN ANALYZE attribution: batches filtered by the compiled program
  /// vs. ones that fell back to the interpreter (this execution).
  int64_t specialized_batches() const {
    return specialized_batches_.load(std::memory_order_relaxed);
  }
  int64_t interpreted_batches() const {
    return interpreted_batches_.load(std::memory_order_relaxed);
  }

  /// Engine hook: execute this scan partition-parallel on `pool`. Must be
  /// called before Open(). `window` bounds how many morsels may be buffered
  /// or in flight ahead of the consumer; `morsel_min_rows` is the row
  /// budget below which consecutive partitions are batched into one morsel
  /// (0 = one partition per morsel).
  void EnableParallel(ThreadPool* pool, size_t window, size_t morsel_min_rows);
  bool parallel_enabled() const { return pool_ != nullptr; }

  /// Installs a worker-side pipeline stage (see MorselStage). Parallel mode
  /// only; must be set before Open(). `coarse_morsels` requests far coarser
  /// morsel formation (~2 per worker) — right for reduction stages whose
  /// per-morsel merge cost is a whole partial state (aggregate fold), wrong
  /// for per-row stages (candidate filters, sorted runs) that want the scan
  /// default.
  void set_morsel_stage(MorselStage fn, bool coarse_morsels = false) {
    morsel_stage_ = std::move(fn);
    stage_coarse_morsels_ = coarse_morsels;
  }

  /// Consumer loop for reduction stages: delivers the next morsel's
  /// morsel-level payload in scan-set order (skipping pruned/empty
  /// morsels). False at end of scan.
  bool NextPayload(MorselPayload* out);

  /// The native, unboxed pull API: the next partition's surviving rows as a
  /// ColumnBatch (possibly with an empty selection — one batch is emitted
  /// per loaded partition even if the filter kept no rows). Works in serial
  /// and parallel mode; parallel delivery is in scan-set order with the
  /// consumer-side top-k boundary re-check applied. False at end of scan.
  /// `item_payload`, when non-null, receives the delivered partition's
  /// stage payload (null when no stage is installed or in serial mode).
  bool NextColumns(ColumnBatch* out, MorselPayload* item_payload = nullptr);

  /// Engine hook: per-query cancellation. When `*cancel` becomes true the
  /// scan stops delivering (NextColumns/NextPayload report end-of-scan),
  /// abandons its scheduler so unstarted morsels never run, and workers
  /// stop scanning mid-morsel — the query's share of the shared pool frees
  /// up within one in-flight window.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Engine hook: per-query deadline (absolute steady-clock ns, 0 = none).
  /// Past the deadline the scan behaves exactly like a cancelled one —
  /// delivery stops, the scheduler is abandoned, workers stop mid-morsel —
  /// and the engine surfaces kDeadlineExceeded.
  void set_deadline_ns(int64_t deadline_ns) { deadline_ns_ = deadline_ns; }

  /// Non-OK when the scan stopped on a partition-load / dispatch fault
  /// rather than exhausting its scan set. Delivery APIs report end-of-scan
  /// in that case; the engine checks here and surfaces the error instead of
  /// a truncated result.
  const Status& error() const { return error_; }

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;

  /// Observability: how many morsels the last Open() planned (parallel
  /// mode; 0 before Open or in serial mode).
  size_t num_morsels() const { return morsel_ranges_.size(); }
  /// The executing pool and per-scan window (operators reuse them for
  /// their own barrier fan-outs so pipeline tasks respect the same
  /// per-query budget as the scan's morsels). Null / 0 in serial mode.
  ThreadPool* pool() const { return pool_; }
  size_t morsel_window() const { return morsel_window_; }
  const std::atomic<bool>* cancel_flag() const { return cancel_; }

 private:
  /// NextColumns minus the profile wrapper.
  bool NextColumnsInner(ColumnBatch* out, MorselPayload* item_payload);
  /// Worker body: prune checks + load + vectorized filter for every
  /// partition in morsel `morsel_index`'s scan-set range.
  MorselResult ProcessMorsel(size_t morsel_index);
  /// True when the query was cancelled or its deadline passed; abandons the
  /// scheduler on first sight so the shared pool stops receiving this
  /// scan's morsels.
  bool Cancelled();
  /// The shared serial/parallel per-partition scan body. Returns false when
  /// runtime pruning skipped the partition (stats deltas still recorded).
  /// `scratch` is the calling thread's reusable predicate-eval buffer set —
  /// per-partition mask/selection allocations hit the allocator hard on the
  /// hot path, so each evaluating thread keeps one scratch for its lifetime.
  /// A load fault (the scan.partition_load failpoint) sets `*error` and
  /// returns false; callers must check the error before treating false as
  /// "pruned".
  bool ScanPartition(PartitionId pid, ColumnBatch* out, PruningStats* stats,
                     EvalScratch* scratch, Status* error);
  /// Groups consecutive scan-set positions into morsel ranges under the
  /// row-count budget.
  void PlanMorsels();
  /// Consumer-side bookkeeping of one delivered scan-set position: merges
  /// its stats delta into the query's stats (and the profile mirror) and
  /// feeds the qualifying-partition record.
  void Account(PartitionId pid, const PruningStats& delta, bool kept_rows);

  ExprPtr filter_;
  /// Batches run by compiled_filter_ vs. the interpreter; atomics because
  /// parallel workers filter batches concurrently.
  std::atomic<int64_t> specialized_batches_{0};
  std::atomic<int64_t> interpreted_batches_{0};
  FilterPruner* runtime_filter_pruner_
      SNOW_PT_GUARDED_BY(runtime_prune_mutex_) = nullptr;
  bool track_source_ = false;
  size_t cursor_ = 0;
  /// Qualifying-partition record (RecordQualifying). `visited_` counts
  /// positions that were loaded and filtered, or that zone maps proved hold
  /// no qualifying row (runtime filter pruning) — never skipped ones.
  bool record_qualifying_ = false;
  size_t recorded_scan_set_size_ = 0;
  size_t visited_ = 0;
  std::vector<PartitionId> qualifying_;
  /// Consumer-thread predicate-eval scratch (serial path; workers use a
  /// thread-local scratch that outlives queries — see ProcessMorsel).
  EvalScratch eval_scratch_;

  ThreadPool* pool_ = nullptr;
  size_t morsel_window_ = 0;
  size_t morsel_min_rows_ = 0;
  /// Morsel i covers scan-set positions [first, second).
  std::vector<std::pair<size_t, size_t>> morsel_ranges_;
  /// Consumer-side iteration state over the current morsel's items.
  MorselResult current_morsel_;
  size_t item_cursor_ = 0;
  /// Serializes FilterPruner::CanPrune across workers (the adaptive
  /// PruningTree mutates per-node statistics on every probe). The pruner is
  /// external state reached through a pointer, so the protected object is
  /// the pointee: SNOW_PT_GUARDED_BY on runtime_filter_pruner_ above.
  Mutex runtime_prune_mutex_;
  MorselStage morsel_stage_;
  bool stage_coarse_morsels_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  int64_t deadline_ns_ = 0;
  /// First fault seen by the consumer thread (see error()).
  Status error_;
  std::unique_ptr<ParallelScanScheduler> scheduler_;
};

/// One shard's answer to a sharded scan: the partitions its sub-query
/// scanned, in the gather's scan-set order, and its rows — the first
/// batch_rows[0] of them from slice[0], the next batch_rows[1] from
/// slice[1], and so on.
struct ShardAnswer {
  ScanSet slice;
  std::vector<Row> rows;
  std::vector<size_t> batch_rows;
};

/// The coordinator-side stand-in for a sharded table scan: iterates the
/// final global scan set in order, consults the (evolving) top-k boundary
/// before each partition exactly where the serial scan would — before the
/// "load" — and emits the partition's rows from its shard's answer as one
/// batch (even an empty one, matching TableScanOp's one-batch-per-partition
/// contract). Each answer is read in place through its own cursor: slices
/// follow scan-set order, so a partition's rows are always at the head of
/// one cursor. Per-partition stats are metered here, in scan-set order, so
/// the gathered PruningStats reproduce a serial run's counters bit-for-bit;
/// an answer dropped by a boundary that tightened after the scatter is the
/// sharded analog of a parallel worker's stale lookahead load and is
/// surfaced as speculative_loads.
class GatherSourceOp : public ScanSource {
 public:
  using ScanSource::ScanSource;

  /// Installs the scatter's answers; must precede Open(). Every partition
  /// the gather will not skip is in exactly one slice: the scatter drops a
  /// partition only when the boundary already skips it, and boundaries only
  /// tighten.
  void SetAnswers(std::vector<ShardAnswer> answers) {
    answers_ = std::move(answers);
  }
  /// Meters the cross-shard pruning level (shards the scatter did not
  /// contact) with the rest of this source's counters.
  void MeterShards(int64_t total, int64_t pruned);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override {}

 private:
  bool NextInner(Batch* out);

  struct Cursor {
    size_t batch = 0;  ///< Next slice position.
    size_t row = 0;    ///< First row of that partition.
  };
  std::vector<ShardAnswer> answers_;
  std::vector<Cursor> cursors_;
  size_t cursor_ = 0;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_SCAN_OP_H_
