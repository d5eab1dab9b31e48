#ifndef SNOWPRUNE_SERVICE_QUERY_SERVICE_H_
#define SNOWPRUNE_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/stats_collector.h"
#include "common/status.h"
#include "common/trace.h"
#include "exec/engine.h"
#include "exec/parallel/thread_pool.h"
#include "shard/coordinator.h"
#include "storage/catalog.h"

namespace snowprune {
namespace service {

/// Service sizing and admission policy.
struct QueryServiceConfig {
  /// Width of the ONE scan-worker pool shared by every query the service
  /// runs (the paper's §2 "highly parallel execution layer", now also the
  /// inter-query layer). 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Admission bound: queries executing at once (each on its own driver
  /// thread; their scans share the worker pool). Work beyond the bound
  /// queues FIFO. 0 = max(2, pool width).
  size_t max_in_flight = 0;
  /// Bounded admission queue: Submit is rejected with ResourceExhausted
  /// when this many queries are already waiting. 0 = unbounded.
  size_t queue_capacity = 0;
  /// Shards the catalog is partitioned into. <= 1 runs every query on a
  /// plain per-driver engine (exactly the unsharded service); > 1 gives
  /// each driver a ShardCoordinator instead — queries are compiled once,
  /// pruned against the shard map (the cross-shard level), scattered to
  /// surviving shards and gathered, with rows and per-table PruningStats
  /// still byte-identical to a single-engine serial run.
  size_t num_shards = 1;
  /// Partition placement when num_shards > 1.
  shard::ShardPolicy shard_policy = shard::ShardPolicy::kRange;
  /// Trace sampling: every `trace_every`-th submitted query (the first one
  /// included) executes with a per-query Trace and gets an EXPLAIN ANALYZE
  /// profile attached to its handle. 1 traces every query; 0 (default)
  /// traces none — the untraced path skips every metering site.
  size_t trace_every = 0;
  /// Per-query deadline, measured from Submit. Zero (default) = none.
  /// Queued queries whose deadline expires are shed without ever consuming
  /// pool share (lazily at dequeue, eagerly when a later Submit scans the
  /// queue); executing queries ride the cancellation plumbing and release
  /// their pool share within ~a morsel window. Either way the query
  /// completes with kDeadlineExceeded, counted in
  /// ServiceStats::deadline_exceeded (and shed_expired for pre-execution
  /// sheds).
  std::chrono::nanoseconds default_deadline{0};
  /// Per-shard slice-scan retry policy (sharded configs; see RetryPolicy).
  shard::RetryPolicy retry;
  /// Template for the per-driver engines. `exec.pool`, `exec.num_threads`
  /// and (unless explicitly set) `exec.morsel_window` are overridden by the
  /// service; everything else (pruning toggles, predicate cache, ...)
  /// applies to every query as configured.
  EngineConfig engine;
};

/// Monotonic service counters (all under one lock; read via stats()).
struct ServiceStats {
  int64_t submitted = 0;   ///< Admitted into the queue.
  int64_t rejected = 0;    ///< Bounced by the bounded queue.
  /// Finished, any way. Invariant (asserted in service tests):
  /// completed == ok + failed + cancelled + deadline_exceeded.
  int64_t completed = 0;
  int64_t ok = 0;          ///< Completed with an OK result.
  int64_t failed = 0;      ///< Completed with another non-OK status.
  int64_t cancelled = 0;   ///< Completed via Handle::Cancel.
  /// Completed with kDeadlineExceeded — shed from the queue or stopped
  /// mid-execution. Deliberately NOT folded into `failed`: a deadline miss
  /// is the service keeping its latency promise, not a query bug.
  int64_t deadline_exceeded = 0;
  /// Subset of deadline_exceeded that never started executing (shed while
  /// queued, zero pool share consumed).
  int64_t shed_expired = 0;
  int64_t peak_in_flight = 0;    ///< Max queries executing at once.
  int64_t peak_queue_depth = 0;  ///< Max queries waiting at once.
  /// Deepest the shared worker pool's task backlog ever got (morsels across
  /// every in-flight query) — the measured
  /// worst case of the head-of-line pressure the per-query morsel-window
  /// budget is meant to bound. Sampled inside ThreadPool::Submit, so no
  /// backlog spike can dodge it.
  int64_t peak_pool_queue_depth = 0;
  /// Per-query latency distributions (every completed query contributes,
  /// traced or not): admission-queue wait and engine execution time. Use
  /// Percentile(p) for p50/p95/p99 tail reporting.
  StatsCollector queue_wait_ms;
  StatsCollector exec_ms;
};

/// A concurrent query service: ONE shared scan-worker pool, a FIFO
/// admission queue, and a bounded set of driver threads executing many
/// queries at once against a shared Catalog (and, when configured, a shared
/// PredicateCache). This is the paper's production setting in miniature —
/// millions of repetitive queries arriving concurrently is what makes §8.2
/// predicate caching pay off — layered on the per-query parallel engine.
///
/// Correctness bar: a query's result and PruningStats are byte-identical to
/// a serial solo run of the same query, no matter how many other queries
/// are in flight (the per-query engines already guarantee parallel == serial
/// and all cross-query state — catalog, cache, top-k boundaries — is either
/// per-query or internally synchronized). The one caveat is shared-cache
/// interplay: a PredicateCache hit legitimately shrinks the scan set, so
/// solo-vs-service stats identity holds for cache-less configs (or equal
/// cache states).
///
/// Plans are bound to table schemas during execution; a PlanPtr may be
/// submitted again after its result arrives, but must not be in flight
/// twice concurrently.
class QueryService {
 public:
  /// Completion handle for a submitted query. Copyable (shared state);
  /// Await() is single-shot — it blocks until the query finishes and moves
  /// the result out.
  class Handle {
   public:
    /// An empty handle (Result<Handle> plumbing); every meaningful handle
    /// comes from Submit. Await on an empty handle returns an error.
    Handle() = default;
    /// Blocks until the query completes and returns its result. The second
    /// call on the same underlying submission returns an error (the result
    /// was moved out).
    Result<QueryResult> Await();
    bool done() const;
    /// Milliseconds the query waited in the admission queue before a driver
    /// picked it up. Valid once done.
    double queue_ms() const;
    /// When the query finished (steady clock). Valid once done; open-loop
    /// drivers use it for arrival→completion latency without having to
    /// observe the completion themselves.
    std::chrono::steady_clock::time_point done_at() const;

    /// Requests cancellation. Queued queries complete with
    /// Status::Cancelled when a driver reaches them (without executing);
    /// an executing query's engine aborts at its next scan delivery, its
    /// scans abandon their schedulers, and its share of the shared worker
    /// pool frees up within about one morsel window. Idempotent; a no-op
    /// once the query finished.
    void Cancel();

    /// The query's span trace (sampled queries only; null otherwise —
    /// see QueryServiceConfig::trace_every). Owned by the handle's shared
    /// state. Only read it once done(): earlier reads race with the
    /// executing driver.
    const Trace* trace() const;
    /// The query's EXPLAIN ANALYZE profile (sampled queries only; null
    /// otherwise, and null for queries that failed). Valid once done().
    std::shared_ptr<const QueryProfile> profile() const;

   private:
    friend class QueryService;
    /// Shared completion state. `cancel` is an atomic flag polled lock-free
    /// by the executing engine; everything else is SNOW_GUARDED_BY(mutex)
    /// and compile-checked.
    struct State {
      mutable Mutex mutex;
      CondVar cv;
      std::atomic<bool> cancel{false};
      bool done SNOW_GUARDED_BY(mutex) = false;
      bool consumed SNOW_GUARDED_BY(mutex) = false;
      double queue_ms SNOW_GUARDED_BY(mutex) = 0.0;
      std::chrono::steady_clock::time_point done_at SNOW_GUARDED_BY(mutex);
      Result<QueryResult> result SNOW_GUARDED_BY(mutex) =
          Status::Internal("pending");
      /// Set at Submit for sampled queries, written by the executing
      /// driver, stable (read-only) once `done` — the cv hand-off is the
      /// synchronization edge, so no guard annotation.
      std::unique_ptr<Trace> trace;
      std::shared_ptr<QueryProfile> profile SNOW_GUARDED_BY(mutex);
    };
    explicit Handle(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    std::shared_ptr<State> state_;
  };

  QueryService(Catalog* catalog, QueryServiceConfig config);
  /// Fails all still-queued queries with Unavailable, waits for the
  /// executing ones, then tears down drivers and the worker pool.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admission: enqueues the query FIFO. Fails with ResourceExhausted when
  /// the bounded queue is full and Unavailable after shutdown began.
  Result<Handle> Submit(PlanPtr plan) SNOW_EXCLUDES(mutex_);

  /// Closed-loop convenience: Submit + Await on the calling thread.
  Result<QueryResult> Execute(PlanPtr plan);

  /// Blocks until every admitted query has completed.
  void Drain() SNOW_EXCLUDES(mutex_);

  ServiceStats stats() const SNOW_EXCLUDES(mutex_);
  /// Queries currently executing (dequeued, not yet completed).
  size_t in_flight() const SNOW_EXCLUDES(mutex_);
  /// Queries waiting in the admission queue.
  size_t queue_depth() const SNOW_EXCLUDES(mutex_);

  size_t pool_width() const { return scan_pool_.num_threads(); }
  /// The per-query morsel window: `engine.exec.morsel_window` when set, else
  /// max(2, 4 × pool width / (max_in_flight × max(1, num_shards))).
  size_t per_query_morsel_window() const { return per_query_window_; }
  ThreadPool* scan_pool() { return &scan_pool_; }

 private:
  struct Task {
    PlanPtr plan;
    std::shared_ptr<Handle::State> state;
    std::chrono::steady_clock::time_point submitted_at;
    /// Absolute steady-clock deadline in ns (0 = none), fixed at Submit.
    int64_t deadline_ns = 0;
  };

  void DriverLoop(size_t driver_index) SNOW_EXCLUDES(mutex_);
  static void Finish(const std::shared_ptr<Handle::State>& state,
                     Result<QueryResult> result, double queue_ms);

  QueryServiceConfig config_;
  ThreadPool scan_pool_;
  size_t per_query_window_ = 0;
  /// One engine per driver thread (engines are single-query at a time);
  /// all point at the shared catalog, pool, and predicate cache.
  std::vector<std::unique_ptr<Engine>> engines_;
  /// One coordinator per driver thread when num_shards > 1 (empty
  /// otherwise); each runs its shards' slice scans on the same shared pool.
  std::vector<std::unique_ptr<shard::ShardCoordinator>> coordinators_;

  mutable Mutex mutex_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<Task> queue_ SNOW_GUARDED_BY(mutex_);
  size_t in_flight_ SNOW_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ SNOW_GUARDED_BY(mutex_) = false;
  ServiceStats stats_ SNOW_GUARDED_BY(mutex_);

  std::vector<std::thread> drivers_;
};

}  // namespace service
}  // namespace snowprune

#endif  // SNOWPRUNE_SERVICE_QUERY_SERVICE_H_
