#ifndef SNOWPRUNE_EXEC_SCAN_OP_H_
#define SNOWPRUNE_EXEC_SCAN_OP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/join_pruner.h"
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

/// What plan compilation needs of a scan-set leaf, whether it loads its
/// partitions (TableScanOp) or replays a scatter's answers for them
/// (GatherSourceOp): the scan set, which LIMIT pruning and top-k
/// preparation replace; the top-k pruner consulted before each partition;
/// and the scan's pruning ledger.
///
/// The ledger counts every decision about this scan's partitions exactly
/// once: compile writes the cache, shard-probe, filter and LIMIT counts,
/// the scan itself the join, top-k, scanned and speculative ones (on the
/// consumer thread), the scatter the shard counts. The query's
/// PruningStats, its compile-span annotations and this scan's profile node
/// are all read off the ledgers after the fact.
class ScanSource : public Operator {
 public:
  ScanSource(std::shared_ptr<Table> table, ScanSet scan_set)
      : table_(std::move(table)), scan_set_(std::move(scan_set)) {}

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

  const PruningStats& ledger() const { return ledger_; }
  PruningStats* mutable_ledger() { return &ledger_; }

  const Schema& output_schema() const override { return table_->schema(); }

 protected:
  std::shared_ptr<Table> table_;
  ScanSet scan_set_;
  PruningStats ledger_;
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
/// overhead amortizes. Loading, predicate evaluation, top-k boundary
/// checks, and an optional per-morsel reduction run on workers; batches are
/// still delivered to the consumer in scan-set order, so every downstream
/// operator — and the query result — is bit-identical to serial execution.
/// Per-partition PruningStats are merged into the scan's ledger on the
/// consumer thread, in scan-set order.
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

  TableScanOp(std::shared_ptr<Table> table, ScanSet scan_set, ExprPtr filter);
  ~TableScanOp() override;

  /// Join hook (§6): prunes the not-yet-scanned part of the scan set with a
  /// freshly built summary. `key_column` indexes this scan's output schema.
  /// Returns the number of partitions pruned.
  int64_t ApplyJoinSummary(const BuildSummary& summary, size_t key_column);

  /// Predicate-cache hook (scan and k-sufficient entries): from Open() on,
  /// note which partitions the filter kept rows of, and how many. The engine
  /// calls it right after compile-time filter pruning, while the scan set
  /// still holds every partition that may contain a qualifying row.
  void RecordQualifying() {
    record_qualifying_ = true;
    recorded_scan_set_size_ = scan_set_.size();
  }
  /// The record RecordQualifying() asked for, read after the scan finished.
  struct QualifyingRecord {
    /// Delivered partitions where the filter kept at least one row, in
    /// delivery order, and the qualifying rows they held.
    std::vector<PartitionId> partitions;
    int64_t rows = 0;
    /// The scan delivered the whole scan set it held at RecordQualifying():
    /// none dropped from it later (LIMIT pruning, a join summary), none
    /// skipped at runtime (top-k boundary), no early stop (LIMIT). Only then
    /// are `partitions` all the qualifying ones.
    bool complete = false;
  };
  /// nullopt when nothing was recorded or the scan stopped on a fault
  /// (cancellation and a passed deadline discard the run in the engine).
  std::optional<QualifyingRecord> QualifyingPartitions() const;

  /// Emit per-row provenance (source partition ids) for the predicate cache
  /// when materializing boxed batches (NextColumns() always carries
  /// provenance — it is the batch's partition id).
  void set_track_source(bool track) { track_source_ = track; }

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
  bool ScanPartition(PartitionId pid, ColumnBatch* out, PruningStats* delta,
                     EvalScratch* scratch, Status* error);
  /// Groups consecutive scan-set positions into morsel ranges under the
  /// row-count budget.
  void PlanMorsels();
  /// Consumer-side bookkeeping of one delivered scan-set position: merges
  /// its stats delta into the ledger and feeds the qualifying-partition
  /// record with the rows the filter kept.
  void Account(PartitionId pid, const PruningStats& delta, int64_t kept_rows);

  ExprPtr filter_;
  bool track_source_ = false;
  size_t cursor_ = 0;
  /// Qualifying-partition record (RecordQualifying). `visited_` counts
  /// positions that were loaded and filtered — never skipped ones.
  bool record_qualifying_ = false;
  size_t recorded_scan_set_size_ = 0;
  size_t visited_ = 0;
  QualifyingRecord qualifying_;
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
  MorselStage morsel_stage_;
  bool stage_coarse_morsels_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  int64_t deadline_ns_ = 0;
  /// First fault seen by the consumer thread (see error()).
  Status error_;
  std::unique_ptr<ParallelScanScheduler> scheduler_;
};

/// One shard's answer to a sharded scan: the partitions its slice scan
/// read, in the gather's scan-set order, and one batch per partition —
/// batches[i] holds slice[i]'s surviving rows.
struct ShardAnswer {
  ScanSet slice;
  std::vector<Batch> batches;
};

/// The coordinator-side stand-in for a sharded table scan: iterates the
/// final global scan set in order, consults the (evolving) top-k boundary
/// before each partition exactly where the serial scan would — before the
/// "load" — and emits the partition's batch from its shard's answer (even an
/// empty one, matching TableScanOp's one-batch-per-partition contract).
/// Slices follow scan-set order, so a partition's batch is always at the
/// head of one answer. Per-partition stats are metered into the ledger
/// here, in scan-set order, so it reproduces a serial scan's counters
/// bit-for-bit; an answer dropped by a boundary that tightened after the
/// scatter is the sharded analog of a parallel worker's stale lookahead
/// load and is surfaced as speculative_loads.
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
  void Open() override;
  bool Next(Batch* out) override;
  void Close() override {}

 private:
  bool NextInner(Batch* out);

  std::vector<ShardAnswer> answers_;
  /// Per answer: the next slice position.
  std::vector<size_t> heads_;
  size_t cursor_ = 0;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_SCAN_OP_H_
