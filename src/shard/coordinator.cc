#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <memory>
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
  /// One attempt at one shard's slice: its open scan and "shard.scan" span,
  /// or the fault that lost the slice request on the way out.
  struct SliceAttempt {
    Status lost;
    std::unique_ptr<ScopedSpan> span;
    std::unique_ptr<TableScanOp> scan;
  };

  /// Sends `slice` out: opens its scan, on `pool` when there is one.
  SliceAttempt Launch(const ScanSet& slice, GatherSourceOp* gather,
                      ThreadPool* pool, size_t window, uint32_t scatter_span);
  /// Receives the attempt's answer: one batch per slice partition, in slice
  /// order, or the fault that lost it. Closes the attempt.
  Result<std::vector<Batch>> Drain(SliceAttempt* attempt);

  ShardCoordinator* const coordinator_;
  /// The scan's predicate, bound by the compile before Scatter runs.
  const ExprPtr predicate_;
  const ShardMap& map_;
  const ExecuteOptions& opts_;
};

ShardCoordinator::ScatterLeaf::SliceAttempt
ShardCoordinator::ScatterLeaf::Launch(const ScanSet& slice,
                                      GatherSourceOp* gather, ThreadPool* pool,
                                      size_t window, uint32_t scatter_span) {
  SliceAttempt attempt;
  // Injection site: the slice request is lost on the way out — a retryable
  // wire fault.
  if (SNOW_FAILPOINT("shard.scatter_launch")) {
    attempt.lost = InjectedFault("shard.scatter_launch");
    return attempt;
  }
  attempt.span =
      std::make_unique<ScopedSpan>(opts_.trace, "shard.scan", scatter_span);
  attempt.span->AnnotateInt("partitions", static_cast<int64_t>(slice.size()));
  attempt.scan =
      std::make_unique<TableScanOp>(gather->table(), slice, predicate_);
  TableScanOp& scan = *attempt.scan;
  if (pool != nullptr) {
    scan.EnableParallel(pool, window,
                        coordinator_->config_.engine.exec.morsel_min_rows);
    // Rows are boxed where the partition was scanned, so the pool's
    // workers, not this thread, pay for the answer's rows.
    scan.set_morsel_stage([](MorselResult* morsel) {
      for (MorselItem& item : morsel->items) {
        if (!item.loaded) continue;
        auto batch = std::make_shared<Batch>();
        item.batch.MaterializeInto(batch.get(), /*track_source=*/false);
        item.payload = std::move(batch);
      }
    });
  }
  scan.set_cancel_flag(opts_.cancel);
  scan.set_deadline_ns(opts_.deadline_ns);
  scan.set_trace(opts_.trace, attempt.span->id());
  scan.Open();
  return attempt;
}

Result<std::vector<Batch>> ShardCoordinator::ScatterLeaf::Drain(
    SliceAttempt* attempt) {
  if (!attempt->lost.ok()) return attempt->lost;
  TableScanOp& scan = *attempt->scan;
  const size_t slice_size = scan.scan_set().size();
  std::vector<Batch> batches;
  batches.reserve(slice_size);
  ColumnBatch columns;
  TableScanOp::MorselPayload boxed;
  while (scan.NextColumns(&columns, &boxed)) {
    batches.push_back(boxed != nullptr
                          ? std::move(*static_cast<Batch*>(boxed.get()))
                          : columns.Materialize());
  }
  scan.Close();
  const Status error = scan.error();
  *attempt = SliceAttempt();
  if (!error.ok()) return error;
  if (opts_.cancel != nullptr &&
      opts_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  if (DeadlinePassed(opts_.deadline_ns)) {
    return Status::DeadlineExceeded("deadline exceeded during scatter");
  }
  // Answer shape: a slice scan loads every partition it holds (no runtime
  // pruner is attached), so anything but one batch per partition means the
  // gather would replay rows under the wrong partition.
  if (batches.size() != slice_size) {
    return Status::Internal("shard answer holds " +
                            std::to_string(batches.size()) +
                            " batches for a slice of " +
                            std::to_string(slice_size) + " partitions");
  }
  // Injection site: the answer is lost on the way back — the work was done,
  // the answer is gone. Also a retryable wire fault.
  if (SNOW_FAILPOINT("shard.scatter_complete")) {
    return InjectedFault("shard.scatter_complete");
  }
  return batches;
}

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

  // Scatter: every contacted shard's slice scan opens up front, so with a
  // pool all slices load, filter and box on its workers while this thread
  // drains them in shard order. The slice scans' ledgers are dropped: the
  // gather accounts every partition in scan-set order.
  std::vector<SliceAttempt> attempts(contacted.size());
  for (size_t i = 0; i < contacted.size(); ++i) {
    attempts[i] = Launch(slices[contacted[i]], gather, pool, window,
                         scatter_span.id());
  }
  static Counter* const retries_counter =
      MetricsRegistry::Instance().GetCounter("shard.retries");
  static Counter* const retry_exhausted_counter =
      MetricsRegistry::Instance().GetCounter("shard.retry_exhausted");
  const RetryPolicy& retry = coordinator_->config_.retry;
  int retry_budget = retry.retry_budget;
  Status failed;
  std::vector<ShardAnswer> answers;
  answers.reserve(contacted.size());
  for (size_t i = 0; i < contacted.size() && failed.ok(); ++i) {
    ScanSet& slice = slices[contacted[i]];
    // Transient-failure retry loop. Each attempt is a fresh scan of the same
    // snapshot and slice, so a successful retry is byte-identical to a
    // first-try success: the gather cannot tell the attempts apart.
    for (int attempt = 1;; ++attempt) {
      Result<std::vector<Batch>> scanned = Drain(&attempts[i]);
      if (scanned.ok()) {
        answers.push_back(ShardAnswer{std::move(slice),
                                      std::move(scanned).value()});
        break;
      }
      if (!IsRetryable(scanned.status().code()) ||
          (opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed)) ||
          DeadlinePassed(opts_.deadline_ns)) {
        failed = scanned.status();
        break;
      }
      if (attempt >= retry.max_attempts || retry_budget-- <= 0) {
        // Out of attempts or out of per-query budget: surface the
        // underlying transient error untouched.
        retry_exhausted_counter->Add();
        failed = scanned.status();
        break;
      }
      const int64_t backoff_us = RetryBackoffUs(retry, attempt);
      if (trace != nullptr) {
        const uint32_t span =
            trace->BeginSpan("shard.retry", scatter_span.id());
        trace->AnnotateInt(span, "attempt", attempt);
        trace->AnnotateInt(span, "backoff_us", backoff_us);
        trace->AnnotateStr(span, "error", scanned.status().ToString());
        trace->EndSpan(span);
      }
      ++info.retries;
      retries_counter->Add();
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
      attempts[i] = Launch(slice, gather, pool, window, scatter_span.id());
    }
  }
  // A failed shard stops the scatter: the slices not yet drained are
  // abandoned (their schedulers stop feeding the pool and wait out the
  // morsels already running) and their spans closed.
  attempts.clear();
  scatter_span.AnnotateInt("fanout", static_cast<int64_t>(contacted.size()));
  scatter_span.AnnotateInt("retries", info.retries);
  if (!failed.ok()) return failed;
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
  if (it == map_cache_.end() || !it->second.Describes(table)) {
    // First sight, or DML changed the table: (re)build from the new
    // version's metadata.
    it = map_cache_
             .insert_or_assign(
                 name, ShardMap::Build(table, config_.num_shards,
                                       config_.policy))
             .first;
  }
  return it->second;
}

Result<QueryResult> ShardCoordinator::Execute(const PlanPtr& plan,
                                              const ExecuteOptions& options) {
  if (!plan) return Status::InvalidArgument("null plan");
  last_exec_ = ExecInfo{};
  ExecuteOptions opts = options;

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
