#include "exec/scan_op.h"

#include <algorithm>

#include "common/check.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "exec/parallel/pipeline.h"
#include "exec/profile.h"
#include "expr/evaluator.h"

namespace snowprune {

TableScanOp::TableScanOp(std::shared_ptr<Table> table, ScanSet scan_set,
                         ExprPtr filter)
    : ScanSource(std::move(table), std::move(scan_set)),
      filter_(std::move(filter)) {}

TableScanOp::~TableScanOp() = default;

void TableScanOp::EnableParallel(ThreadPool* pool, size_t window,
                                 size_t morsel_min_rows) {
  pool_ = pool;
  morsel_window_ = window;
  morsel_min_rows_ = morsel_min_rows;
}

void TableScanOp::PlanMorsels() {
  morsel_ranges_.clear();
  int64_t budget = static_cast<int64_t>(morsel_min_rows_);
  if (stage_coarse_morsels_) {
    // Reduction stages pay a per-morsel merge cost (a partial group map
    // built and merged per morsel), so they want far coarser morsels than
    // plain scans: target ~2 morsels per worker, floored at the configured
    // budget. Plain scans — and per-row stages like candidate filters or
    // sorted runs — keep fine morsels; their per-morsel handoff is small.
    int64_t total_rows = 0;
    for (PartitionId pid : scan_set_) {
      total_rows += table_->partition_metadata(pid).row_count();
    }
    budget = std::max(
        budget,
        total_rows / static_cast<int64_t>(2 * pool_->num_threads()));
  }
  size_t i = 0;
  while (i < scan_set_.size()) {
    const size_t begin = i;
    int64_t rows = 0;
    // Batch consecutive partitions until the (metadata, load-free) row
    // budget is met; budget 0 degenerates to one partition per morsel.
    do {
      rows += table_->partition_metadata(scan_set_[i]).row_count();
      ++i;
    } while (i < scan_set_.size() && rows < budget);
    morsel_ranges_.emplace_back(begin, i);
  }
}

void TableScanOp::Open() {
  cursor_ = 0;
  item_cursor_ = 0;
  visited_ = 0;
  qualifying_ = QualifyingRecord();
  error_ = Status::OK();
  current_morsel_ = MorselResult();
  scheduler_.reset();
  morsel_ranges_.clear();
  if (pool_ != nullptr) {
    // The scan set is final here: LIMIT/top-k/cache restrictions happen at
    // compile time and join summaries are applied before the probe side
    // opens (HashJoinOp::Open), so fan-out can start immediately.
    PlanMorsels();
    scheduler_ = std::make_unique<ParallelScanScheduler>(
        pool_, morsel_ranges_.size(),
        [this](size_t index) { return ProcessMorsel(index); }, morsel_window_);
  }
}

int64_t TableScanOp::ApplyJoinSummary(const BuildSummary& summary,
                                      size_t key_column) {
  // Only the unscanned tail is eligible; in practice joins install the
  // summary at Open() before any probe-side partition was read (and, in
  // parallel mode, before this scan's scheduler exists).
  ScanSet remaining(std::vector<PartitionId>(
      scan_set_.ids().begin() + static_cast<long>(cursor_),
      scan_set_.ids().end()));
  JoinPruneResult pruned =
      JoinPruner::PruneProbe(*table_, remaining, key_column, summary);
  std::vector<PartitionId> new_ids(scan_set_.ids().begin(),
                                   scan_set_.ids().begin() +
                                       static_cast<long>(cursor_));
  new_ids.insert(new_ids.end(), pruned.scan_set.begin(), pruned.scan_set.end());
  scan_set_ = ScanSet(std::move(new_ids));
  ledger_.pruned_by_join += pruned.pruned;
  return pruned.pruned;
}

void TableScanOp::Account(PartitionId pid, const PruningStats& delta,
                          int64_t kept_rows) {
  ledger_.Merge(delta);
  if (!record_qualifying_) return;
  if (delta.scanned_partitions == 1) ++visited_;
  if (kept_rows > 0) {
    qualifying_.partitions.push_back(pid);
    qualifying_.rows += kept_rows;
  }
}

std::optional<TableScanOp::QualifyingRecord>
TableScanOp::QualifyingPartitions() const {
  if (!record_qualifying_ || !error_.ok()) return std::nullopt;
  QualifyingRecord record = qualifying_;
  record.complete = scan_set_.size() == recorded_scan_set_size_ &&
                    visited_ == recorded_scan_set_size_;
  return record;
}

bool TableScanOp::Cancelled() {
  const bool cancelled =
      cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  if (!cancelled && !DeadlinePassed(deadline_ns_)) return false;
  // Stop feeding the pool: unstarted morsels are abandoned, running ones
  // finish on their own (and check the flag per partition themselves). A
  // passed deadline rides the same plumbing — the engine tells the two
  // apart afterwards.
  if (scheduler_ != nullptr) scheduler_->Abandon();
  return true;
}

bool TableScanOp::ScanPartition(PartitionId pid, ColumnBatch* out,
                                PruningStats* delta, EvalScratch* scratch,
                                Status* error) {
  // Runtime top-k pruning: consult the boundary *before* loading (§5.2).
  if (topk_pruner_ != nullptr && topk_pruner_->ShouldSkip(*table_, pid)) {
    ++delta->pruned_by_topk;
    return false;
  }
  // Injection site: the partition survived every prune but its load fails
  // (storage fault). Placed after the prune checks so injected faults only
  // hit partitions the query would actually read.
  if (SNOW_FAILPOINT("scan.partition_load")) {
    *error = InjectedFault("scan.partition_load");
    return false;
  }
  const MicroPartition& part = table_->LoadPartition(pid);
  ++delta->scanned_partitions;
  delta->scanned_rows += part.row_count();
  if (filter_) {
    std::vector<uint32_t> selection;
    ComputeSelection(*filter_, part, &selection, scratch);
    *out = ColumnBatch::Selected(part, pid, std::move(selection));
  } else {
    *out = ColumnBatch::AllOf(part, pid);
  }
  return true;
}

MorselResult TableScanOp::ProcessMorsel(size_t morsel_index) {
  // One eval scratch per pool worker, living as long as the thread: morsels
  // of every scan, query, and client stream that lands on this worker reuse
  // the same mask/selection buffers (ROADMAP allocator-pressure note).
  thread_local EvalScratch worker_scratch;
  MorselResult result;
  const auto range = morsel_ranges_[morsel_index];
  // Traced queries: the morsel's whole worker-side life becomes one span in
  // the result's buffer — recorded lock-free here, merged by the consumer
  // at delivery. trace_ is set before Open() and read-only on workers.
  const uint32_t morsel_span =
      trace_ != nullptr ? result.spans.Begin("scan.morsel") : 0;
  result.items.resize(range.second - range.first);
  for (size_t pos = range.first; pos < range.second; ++pos) {
    if ((cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) ||
        DeadlinePassed(deadline_ns_)) {
      // Cancelled (or past deadline) mid-morsel: the remaining partitions
      // stay unloaded with zero stats. The consumer has stopped delivering,
      // so nothing reads the partial result; stopping here frees the worker
      // promptly.
      break;
    }
    MorselItem& item = result.items[pos - range.first];
    Status load_error;
    item.loaded = ScanPartition(scan_set_[pos], &item.batch, &item.stats,
                                &worker_scratch, &load_error);
    item.kept_rows =
        item.loaded ? static_cast<int64_t>(item.batch.num_rows()) : 0;
    if (!load_error.ok()) {
      // A load fault poisons the whole morsel: later partitions stay
      // unloaded so the consumer sees the error at this scan-set position
      // with nothing delivered past it.
      result.error = std::move(load_error);
      break;
    }
  }
  if (morsel_stage_) {
    // Operator-installed pipeline stage: per-worker partial work (fold,
    // candidate filter, sorted run, hash partial) over the scanned items,
    // in scan-set order within the morsel. Morsels are merged in order by
    // the consumer, so stage outputs compose exactly like serial execution.
    morsel_stage_(&result);
    PipelineCounters::IncStageTasks();
    // The per-query view of the same counter: an atomic on the Trace, the
    // one Trace member workers may touch.
    if (trace_ != nullptr) trace_->IncStageTasks();
  }
  if (trace_ != nullptr) {
    int64_t scanned = 0;
    int64_t rows = 0;
    for (const MorselItem& item : result.items) {
      scanned += item.stats.scanned_partitions;
      rows += item.stats.scanned_rows;
    }
    result.spans.AnnotateInt(morsel_span, "partitions",
                             static_cast<int64_t>(result.items.size()));
    result.spans.AnnotateInt(morsel_span, "scanned", scanned);
    result.spans.AnnotateInt(morsel_span, "rows", rows);
    result.spans.End(morsel_span);
  }
  return result;
}

bool TableScanOp::NextColumns(ColumnBatch* out, MorselPayload* item_payload) {
  if (profile_ == nullptr) return NextColumnsInner(out, item_payload);
  return ProfiledNext(
      profile_, [&] { return NextColumnsInner(out, item_payload); },
      [&] { return static_cast<int64_t>(out->num_rows()); });
}

bool TableScanOp::NextColumnsInner(ColumnBatch* out,
                                   MorselPayload* item_payload) {
  out->Clear();
  if (item_payload != nullptr) item_payload->reset();
  if (Cancelled()) return false;
  if (scheduler_ != nullptr) {
    for (;;) {
      while (item_cursor_ < current_morsel_.items.size()) {
        MorselItem& item = current_morsel_.items[item_cursor_++];
        // Ordered delivery: this item is scan_set_[cursor_].
        PartitionId pid = scan_set_[cursor_++];
        if (item.loaded && topk_pruner_ != nullptr &&
            topk_pruner_->ShouldSkip(*table_, pid)) {
          // The worker loaded this partition under a stale (looser)
          // boundary. Re-checking here — after every earlier batch has been
          // consumed — sees exactly the boundary state the serial engine
          // would have had before loading it, so dropping the batch now
          // reproduces serial pruning decisions (and stats) bit-for-bit.
          // The wasted background load is surfaced as speculative_loads.
          // Any stage payload (candidates computed from the speculative
          // batch) is dropped with it.
          item.stats.speculative_loads += item.stats.scanned_partitions;
          item.stats.scanned_partitions = 0;
          item.stats.scanned_rows = 0;
          item.stats.pruned_by_topk += 1;
          item.loaded = false;
          item.kept_rows = 0;
          item.payload.reset();
        }
        // Per-partition stats merge on the consumer thread, in scan-set
        // order.
        Account(pid, item.stats, item.kept_rows);
        if (!item.loaded) continue;
        *out = std::move(item.batch);
        if (item_payload != nullptr) *item_payload = std::move(item.payload);
        return true;  // one batch per partition, even with no surviving rows
      }
      if (Cancelled()) return false;
      if (!scheduler_->Next(&current_morsel_)) return false;
      if (!current_morsel_.error.ok()) {
        // A worker hit a load/dispatch fault at this scan-set position.
        // Stop the fan-out and report end-of-scan; the engine reads
        // error() and surfaces the fault instead of a truncated result.
        error_ = std::move(current_morsel_.error);
        current_morsel_ = MorselResult();
        scheduler_->Abandon();
        return false;
      }
      if (trace_ != nullptr && !current_morsel_.spans.empty()) {
        trace_->MergeBuffer(&current_morsel_.spans, trace_parent_);
      }
      item_cursor_ = 0;
    }
  }
  while (cursor_ < scan_set_.size()) {
    if (Cancelled()) return false;
    PartitionId pid = scan_set_[cursor_++];
    Status load_error;
    PruningStats delta;
    const bool loaded =
        ScanPartition(pid, out, &delta, &eval_scratch_, &load_error);
    Account(pid, delta, loaded ? static_cast<int64_t>(out->num_rows()) : 0);
    if (loaded) return true;
    if (!load_error.ok()) {
      error_ = std::move(load_error);
      return false;
    }
  }
  return false;
}

bool TableScanOp::Next(Batch* out) {
  ColumnBatch columns;
  if (!NextColumns(&columns)) {
    out->rows.clear();
    out->source.clear();
    return false;
  }
  columns.MaterializeInto(out, track_source_);
  return true;
}

bool TableScanOp::NextPayload(MorselPayload* out) {
  while (scheduler_ != nullptr && !Cancelled() &&
         scheduler_->Next(&current_morsel_)) {
    if (!current_morsel_.error.ok()) {
      error_ = std::move(current_morsel_.error);
      current_morsel_ = MorselResult();
      scheduler_->Abandon();
      return false;
    }
    if (trace_ != nullptr && !current_morsel_.spans.empty()) {
      trace_->MergeBuffer(&current_morsel_.spans, trace_parent_);
    }
    for (const MorselItem& item : current_morsel_.items) {
      Account(scan_set_[cursor_++], item.stats, item.kept_rows);
    }
    // Folded scans never have a top-k pruner attached (the aggregate only
    // fuses without one), so no delivery-time re-check is needed here.
    if (current_morsel_.payload == nullptr) continue;
    *out = std::move(current_morsel_.payload);
    return true;
  }
  return false;
}

void TableScanOp::Close() {
  scheduler_.reset();
  current_morsel_ = MorselResult();
  item_cursor_ = 0;
}

void GatherSourceOp::Open() {
  cursor_ = 0;
  heads_.assign(answers_.size(), 0);
}

bool GatherSourceOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool GatherSourceOp::NextInner(Batch* out) {
  out->rows.clear();
  out->source.clear();
  while (cursor_ < scan_set_.size()) {
    const PartitionId pid = scan_set_[cursor_++];
    // The batch holding this partition, if it was scattered.
    Batch* batch = nullptr;
    for (size_t s = 0; s < answers_.size(); ++s) {
      size_t& head = heads_[s];
      if (head < answers_[s].slice.size() && answers_[s].slice[head] == pid) {
        batch = &answers_[s].batches[head++];
        break;
      }
    }
    const bool skip =
        topk_pruner_ != nullptr && topk_pruner_->ShouldSkip(*table_, pid);
    SNOW_DCHECK(skip || batch != nullptr);
    if (skip) {
      // Exactly the serial scan's pre-load check; an answer the scatter
      // already produced for this partition was a speculative load.
      ++ledger_.pruned_by_topk;
      if (batch != nullptr) ++ledger_.speculative_loads;
      continue;
    }
    ++ledger_.scanned_partitions;
    ledger_.scanned_rows += table_->partition_metadata(pid).row_count();
    if (batch != nullptr) *out = std::move(*batch);
    return true;  // one batch per partition, even with no surviving rows
  }
  return false;
}

}  // namespace snowprune
