#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/scan_op.h"

namespace snowprune {
namespace shard {

int64_t RetryBackoffUs(const RetryPolicy& policy, int retry) {
  if (retry < 1) retry = 1;
  if (policy.base_backoff_us <= 0) return 0;
  // Capped exponential, saturating well before the shift could overflow.
  int64_t backoff = policy.base_backoff_us;
  for (int i = 1; i < retry && backoff < policy.max_backoff_us; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, policy.max_backoff_us);
  // ±25% deterministic jitter: hash (seed, retry) to a [0,1) draw, the same
  // splitmix construction the failpoint layer uses. Deterministic so tests
  // can assert the exact schedule; jittered so a storm of shards retrying
  // in lockstep decorrelates.
  uint64_t x = policy.jitter_seed ^ (static_cast<uint64_t>(retry) *
                                     0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return static_cast<int64_t>(static_cast<double>(backoff) *
                              (0.75 + 0.5 * u));
}

namespace {

/// Join-free single-scan chain? That is the shape the scatter can answer
/// with one slice scan per shard; everything else falls back to the
/// single-engine path. A chain that reaches a node twice is a cycle, which
/// the engine refuses.
bool SupportedShape(const PlanPtr& plan, size_t* scans,
                    std::set<const PlanNode*>* seen) {
  if (!plan || !seen->insert(plan.get()).second) return false;
  switch (plan->kind) {
    case PlanNode::Kind::kScan:
      return ++*scans == 1;
    case PlanNode::Kind::kProject:
    case PlanNode::Kind::kLimit:
    case PlanNode::Kind::kTopK:
    case PlanNode::Kind::kSort:
    case PlanNode::Kind::kAggregate:
      return SupportedShape(plan->child, scans, seen);
    case PlanNode::Kind::kJoin:
      return false;
  }
  return false;
}

const PlanNode* FindScan(const PlanPtr& plan) {
  return plan->kind == PlanNode::Kind::kScan ? plan.get()
                                             : FindScan(plan->child);
}

}  // namespace

/// One sharded query's side of the engine's sharded-leaf seam: the
/// cross-shard probe inside compile, and the scatter between compile and
/// gather, against the query's one table snapshot.
class ShardCoordinator::ScatterLeaf : public Engine::ShardedLeaf {
 public:
  ScatterLeaf(ShardCoordinator* coordinator, ExprPtr predicate,
              const ShardMap* map, const ExecuteOptions* opts)
      : coordinator_(coordinator),
        predicate_(std::move(predicate)),
        map_(*map),
        opts_(*opts) {}

  ScanSet Probe(const ExprPtr& predicate, const ScanSet& full) override {
    FilterPruner probe(predicate);
    std::vector<uint8_t>& pruned = coordinator_->last_exec_.summary_pruned;
    bool any = false;
    for (size_t s = 0; s < map_.num_shards(); ++s) {
      if (!map_.shard_partitions(s).empty() &&
          probe.CanPruneFromStats(map_.shard_summary(s), map_.shard_rows(s))) {
        pruned[s] = 1;
        any = true;
      }
    }
    if (!any) return full;
    std::vector<PartitionId> remaining;
    remaining.reserve(full.size());
    for (PartitionId pid : full) {
      if (!pruned[map_.shard_of(pid)]) remaining.push_back(pid);
    }
    return ScanSet(std::move(remaining));
  }

  Status Scatter(GatherSourceOp* gather, ThreadPool* pool, size_t window,
                 uint32_t query_span) override;

 private:
  ShardCoordinator* const coordinator_;
  /// The scan's predicate, bound by the compile before Scatter runs.
  const ExprPtr predicate_;
  const ShardMap& map_;
  const ExecuteOptions& opts_;
};

Status ShardCoordinator::ScatterLeaf::Scatter(GatherSourceOp* gather,
                                              ThreadPool* pool, size_t window,
                                              uint32_t query_span) {
  Trace* trace = opts_.trace;
  ScopedSpan scatter_span(trace, "scatter", query_span);
  ExecInfo& info = coordinator_->last_exec_;
  info.sharded = true;
  const Table& table = *gather->table();

  // Slice the final global scan set by shard ownership, keeping scan-set
  // order within each slice. Partitions already skippable under the
  // initialized top-k boundary (§5.4) are dropped before contact —
  // boundaries only ever tighten, so the gather's own pre-partition check
  // is guaranteed to skip them too.
  TopKPruner* pruner = gather->topk_pruner();
  std::vector<ScanSet> slices(map_.num_shards());
  for (PartitionId pid : gather->scan_set()) {
    if (pruner != nullptr && pruner->ShouldSkip(table, pid)) continue;
    // Scatter-edge contract, debug-checked: every scattered partition id is
    // a real partition of the shared snapshot, and lands exactly on the
    // shard that owns it — the slice scans' loads and the gather's
    // per-shard heads both build on this.
    SNOW_DCHECK_LT(static_cast<size_t>(pid), table.num_partitions());
    SNOW_DCHECK_LT(map_.shard_of(pid), map_.num_shards());
    slices[map_.shard_of(pid)].Add(pid);
  }

  info.contacted.assign(map_.num_shards(), 0);
  std::vector<size_t> contacted;
  for (size_t s = 0; s < map_.num_shards(); ++s) {
    if (!slices[s].empty()) {
      info.contacted[s] = 1;
      contacted.push_back(s);
    }
  }
  info.shards_contacted = contacted.size();
  const auto shards_pruned =
      static_cast<int64_t>(map_.assigned_shards() - contacted.size());
  // The cross-shard level goes on the gather's ledger, beside its
  // per-partition counts.
  gather->mutable_ledger()->shards_total =
      static_cast<int64_t>(map_.assigned_shards());
  gather->mutable_ledger()->shards_pruned = shards_pruned;
  static Counter* const scatter_fanout =
      MetricsRegistry::Instance().GetCounter("shard.scatter_fanout");
  static Counter* const shards_pruned_counter =
      MetricsRegistry::Instance().GetCounter("shard.shards_pruned");
  scatter_fanout->Add(static_cast<int64_t>(contacted.size()));
  shards_pruned_counter->Add(shards_pruned);

  if (opts_.cancel != nullptr &&
      opts_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled before execution");
  }
  if (DeadlinePassed(opts_.deadline_ns)) {
    return Status::DeadlineExceeded("deadline passed before scatter");
  }

  // Scatter: each contacted shard scans exactly its slice of the shared
  // snapshot (all other operators run gather-side) with the predicate the
  // compile bound, so concurrent slice scans share the tree read-only. The
  // slice scans' ledgers are dropped: the gather accounts every partition
  // in scan-set order.
  std::vector<Result<std::vector<Batch>>> shard_results(
      contacted.size(), Status::Internal("shard slice unscanned"));
  // Traced scatter: each shard records into its own Trace (scatter threads
  // never touch the parent), stitched under the scatter span after the
  // joins below — the join is the only synchronization needed.
  std::vector<std::unique_ptr<Trace>> shard_traces;
  if (trace != nullptr) {
    shard_traces.reserve(contacted.size());
    for (size_t i = 0; i < contacted.size(); ++i) {
      shard_traces.push_back(std::make_unique<Trace>());
    }
  }
  // Concurrency contract (lock-free by structure, so nothing here is
  // mutex-annotated): each scatter thread i writes only shard_results[i] —
  // pre-sized above, never resized while threads run — and reads only
  // shared state that is frozen for the scatter's duration (slices,
  // snapshot, the pre-bound predicate tree). The pool is thread-safe and
  // none of its workers waits on a scatter thread. The retry budget and
  // retry tally are shared atomics. The joins below are the sole
  // synchronization edge back to the coordinator thread.
  static Counter* const retries_counter =
      MetricsRegistry::Instance().GetCounter("shard.retries");
  static Counter* const retry_exhausted_counter =
      MetricsRegistry::Instance().GetCounter("shard.retry_exhausted");
  const RetryPolicy& retry = coordinator_->config_.retry;
  const size_t morsel_min_rows =
      coordinator_->config_.engine.exec.morsel_min_rows;
  std::atomic<int> retry_budget{retry.retry_budget};
  std::atomic<int64_t> total_retries{0};
  auto run_shard = [&](size_t i) {
    const ScanSet& slice = slices[contacted[i]];
    Trace* shard_trace = shard_traces.empty() ? nullptr : shard_traces[i].get();
    // Transient-failure retry loop. Each attempt is a fresh scan of the same
    // snapshot and slice, so a successful retry is byte-identical to a
    // first-try success: the answers gathered below cannot tell the
    // attempts apart.
    for (int attempt = 1;; ++attempt) {
      Result<std::vector<Batch>> scanned = [&]() -> Result<std::vector<Batch>> {
        // Injection sites: the slice request is lost on the way out
        // (launch) or its response is lost on the way back (complete — the
        // work was done, the answer is gone). Both are the retryable wire
        // faults a real scatter sees.
        if (SNOW_FAILPOINT("shard.scatter_launch")) {
          return InjectedFault("shard.scatter_launch");
        }
        ScopedSpan scan_span(shard_trace, "shard.scan");
        scan_span.AnnotateInt("partitions", static_cast<int64_t>(slice.size()));
        TableScanOp scan(gather->table(), slice, predicate_);
        if (pool != nullptr) scan.EnableParallel(pool, window, morsel_min_rows);
        scan.set_cancel_flag(opts_.cancel);
        scan.set_deadline_ns(opts_.deadline_ns);
        scan.set_trace(shard_trace, scan_span.id());
        std::vector<Batch> batches;
        batches.reserve(slice.size());
        scan.Open();
        Batch batch;
        while (scan.Next(&batch)) batches.push_back(std::move(batch));
        scan.Close();
        if (!scan.error().ok()) return scan.error();
        if (opts_.cancel != nullptr &&
            opts_.cancel->load(std::memory_order_relaxed)) {
          return Status::Cancelled("query cancelled");
        }
        if (DeadlinePassed(opts_.deadline_ns)) {
          return Status::DeadlineExceeded("deadline exceeded during scatter");
        }
        if (SNOW_FAILPOINT("shard.scatter_complete")) {
          return InjectedFault("shard.scatter_complete");
        }
        return batches;
      }();
      if (scanned.ok() || !IsRetryable(scanned.status().code()) ||
          (opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed)) ||
          DeadlinePassed(opts_.deadline_ns)) {
        shard_results[i] = std::move(scanned);
        return;
      }
      if (attempt >= retry.max_attempts ||
          retry_budget.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
        // Out of attempts or out of per-query budget: surface the
        // underlying transient error untouched.
        retry_exhausted_counter->Add();
        shard_results[i] = std::move(scanned);
        return;
      }
      const int64_t backoff_us = RetryBackoffUs(retry, attempt);
      if (shard_trace != nullptr) {
        // The retry lands in this shard's own trace (stitched under the
        // scatter span later), next to the failed attempt's spans.
        const uint32_t span = shard_trace->BeginSpan("shard.retry");
        shard_trace->AnnotateInt(span, "attempt", attempt);
        shard_trace->AnnotateInt(span, "backoff_us", backoff_us);
        shard_trace->AnnotateStr(span, "error", scanned.status().ToString());
        shard_trace->EndSpan(span);
      }
      total_retries.fetch_add(1, std::memory_order_relaxed);
      retries_counter->Add();
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
    }
  };
  if (contacted.size() == 1) {
    // Single-survivor fast path: no thread handoff, the slice is scanned
    // from the coordinator's own thread.
    run_shard(0);
  } else if (!contacted.empty()) {
    // Dedicated scatter threads, one per shard, each consuming its slice's
    // scan — never the worker pool itself, whose workers those scans'
    // morsels need (a consumer blocking on a pool occupied by consumers
    // would deadlock).
    std::vector<std::thread> threads;
    threads.reserve(contacted.size());
    for (size_t i = 0; i < contacted.size(); ++i) {
      threads.emplace_back(run_shard, i);
    }
    info.scatter_threads = threads.size();
    for (auto& t : threads) t.join();
  }
  info.retries = total_retries.load(std::memory_order_relaxed);
  if (trace != nullptr) {
    trace->AnnotateInt(scatter_span.id(), "fanout",
                       static_cast<int64_t>(contacted.size()));
    trace->AnnotateInt(scatter_span.id(), "threads",
                       static_cast<int64_t>(info.scatter_threads));
    trace->AnnotateInt(scatter_span.id(), "retries", info.retries);
    for (auto& shard_trace : shard_traces) {
      trace->MergeChildTrace(shard_trace.get(), scatter_span.id());
    }
  }

  if (opts_.cancel != nullptr &&
      opts_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  if (DeadlinePassed(opts_.deadline_ns)) {
    return Status::DeadlineExceeded("deadline exceeded during scatter");
  }
  std::vector<ShardAnswer> answers;
  answers.reserve(contacted.size());
  for (size_t i = 0; i < contacted.size(); ++i) {
    if (!shard_results[i].ok()) return shard_results[i].status();
    std::vector<Batch>& batches = shard_results[i].value();
    ScanSet& slice = slices[contacted[i]];
    // Answer shape: a slice scan loads every partition it holds (no runtime
    // pruner is attached), so anything but one batch per partition means
    // the gather would replay rows under the wrong partition.
    if (batches.size() != slice.size()) {
      return Status::Internal("shard answer holds " +
                              std::to_string(batches.size()) +
                              " batches for a slice of " +
                              std::to_string(slice.size()) + " partitions");
    }
    answers.push_back(ShardAnswer{std::move(slice), std::move(batches)});
  }
  gather->SetAnswers(std::move(answers));
  // Injection site: the gathered answers are lost before replay (a
  // coordinator-side buffer fault). The scatter work is gone with them —
  // this is the one site where a fault costs a whole query's worth of
  // slice scans, which is exactly what the chaos oracle should see.
  if (SNOW_FAILPOINT("shard.gather_replay")) {
    return InjectedFault("shard.gather_replay");
  }
  return Status::OK();
}

ShardCoordinator::ShardCoordinator(Catalog* catalog, ShardExecConfig config)
    : catalog_(catalog),
      config_(std::move(config)),
      engine_(catalog, config_.engine) {
  config_.num_shards = std::max<size_t>(1, config_.num_shards);
}

ShardCoordinator::~ShardCoordinator() = default;

const ShardMap& ShardCoordinator::MapFor(const std::string& name,
                                         const Table& table) {
  auto it = map_cache_.find(name);
  if (it == map_cache_.end() ||
      it->second.table_instance() != table.instance_id()) {
    // First sight, or DML swapped the table object: (re)build from the new
    // version's metadata.
    it = map_cache_
             .insert_or_assign(
                 name, ShardMap::Build(table, config_.num_shards,
                                       config_.policy))
             .first;
  }
  return it->second;
}

Result<QueryResult> ShardCoordinator::Execute(
    const PlanPtr& plan, const std::atomic<bool>* cancel) {
  return Execute(plan, cancel, nullptr, 0);
}

Result<QueryResult> ShardCoordinator::Execute(const PlanPtr& plan,
                                              const std::atomic<bool>* cancel,
                                              Trace* trace) {
  return Execute(plan, cancel, trace, 0);
}

Result<QueryResult> ShardCoordinator::Execute(const PlanPtr& plan,
                                              const std::atomic<bool>* cancel,
                                              Trace* trace,
                                              int64_t deadline_ns) {
  if (!plan) return Status::InvalidArgument("null plan");
  last_exec_ = ExecInfo{};
  ExecuteOptions opts;
  opts.cancel = cancel;
  opts.trace = trace;
  opts.deadline_ns = deadline_ns;

  size_t scans = 0;
  std::set<const PlanNode*> seen;
  const bool supported =
      SupportedShape(plan, &scans, &seen) && scans == 1 &&
      config_.engine.predicate_cache == nullptr;
  const PlanNode* scan_node = supported ? FindScan(plan) : nullptr;
  // Snapshot the one referenced table: the compile, the shard map and every
  // slice scan see this version, so DML stays snapshot-atomic across shards.
  std::shared_ptr<Table> table =
      supported ? catalog_->GetTable(scan_node->table) : nullptr;
  if (!table) return engine_.Execute(plan, opts);
  const std::map<std::string, std::shared_ptr<Table>> snapshot{
      {scan_node->table, table}};
  opts.tables = &snapshot;
  const ShardMap& map = MapFor(scan_node->table, *table);
  last_exec_.summary_pruned.assign(map.num_shards(), 0);
  static Counter* const queries_sharded =
      MetricsRegistry::Instance().GetCounter("shard.queries_sharded");
  queries_sharded->Add();

  const auto t0 = std::chrono::steady_clock::now();
  ScatterLeaf leaf(this, scan_node->predicate, &map, &opts);
  Result<QueryResult> result = engine_.Execute(plan, opts, &leaf);
  if (result.ok()) {
    result.value().wall_ms = MsSince(t0);  // compile, scatter and gather
    result.value().shard_retries = last_exec_.retries;
  }
  return result;
}

}  // namespace shard
}  // namespace snowprune
