#include "service/query_service.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/metrics.h"
#include "exec/profile.h"

namespace snowprune {
namespace service {

namespace {

/// Process-wide service instruments (one registry entry covers every
/// QueryService instance; the per-instance view is ServiceStats).
struct ServiceMetrics {
  Counter* submitted;
  Counter* rejected;
  Counter* completed;
  Counter* ok;
  Counter* failed;
  Counter* cancelled;
  Counter* deadline_exceeded;
  Counter* shed_expired;
  Histogram* queue_ms;
  Histogram* exec_ms;
};

ServiceMetrics& GetServiceMetrics() {
  static ServiceMetrics m{
      MetricsRegistry::Instance().GetCounter("service.submitted"),
      MetricsRegistry::Instance().GetCounter("service.rejected"),
      MetricsRegistry::Instance().GetCounter("service.completed"),
      MetricsRegistry::Instance().GetCounter("service.ok"),
      MetricsRegistry::Instance().GetCounter("service.failed"),
      MetricsRegistry::Instance().GetCounter("service.cancelled"),
      MetricsRegistry::Instance().GetCounter("service.deadline_exceeded"),
      MetricsRegistry::Instance().GetCounter("service.shed_expired"),
      MetricsRegistry::Instance().GetHistogram(
          "service.queue_ms",
          {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0}),
      MetricsRegistry::Instance().GetHistogram(
          "service.exec_ms",
          {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0})};
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------------

Result<QueryResult> QueryService::Handle::Await() {
  if (!state_) return Status::Internal("empty query handle");
  MutexLock lock(&state_->mutex);
  while (!state_->done) state_->cv.Wait(&state_->mutex);
  if (state_->consumed) {
    return Status::Internal("query result already consumed by a prior Await");
  }
  state_->consumed = true;
  return std::move(state_->result);
}

bool QueryService::Handle::done() const {
  if (!state_) return false;
  MutexLock lock(&state_->mutex);
  return state_->done;
}

double QueryService::Handle::queue_ms() const {
  if (!state_) return 0.0;
  MutexLock lock(&state_->mutex);
  return state_->queue_ms;
}

std::chrono::steady_clock::time_point QueryService::Handle::done_at() const {
  if (!state_) return {};
  MutexLock lock(&state_->mutex);
  return state_->done_at;
}

void QueryService::Handle::Cancel() {
  if (state_) state_->cancel.store(true, std::memory_order_release);
}

const Trace* QueryService::Handle::trace() const {
  return state_ ? state_->trace.get() : nullptr;
}

std::shared_ptr<const QueryProfile> QueryService::Handle::profile() const {
  if (!state_) return nullptr;
  MutexLock lock(&state_->mutex);
  return state_->profile;
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

QueryService::QueryService(Catalog* catalog, QueryServiceConfig config)
    : config_(std::move(config)),
      scan_pool_(config_.num_threads > 0 ? config_.num_threads
                                         : ThreadPool::DefaultConcurrency()) {
  if (config_.max_in_flight == 0) {
    config_.max_in_flight = std::max<size_t>(2, scan_pool_.num_threads());
  }
  // Per-query morsel-window budgeting: an equal share of a service-wide
  // budget of 4 morsels per pool worker, so the head-of-line queue pressure
  // any single query (read: one huge scan) can put in front of everyone
  // else is capped at its share regardless of its scan-set size. A sharded
  // query keeps up to num_shards slice scans open at once, each with its
  // own window, so the share divides by that fan-out too — otherwise one
  // sharded query would claim num_shards budget shares. The floor of 2 and
  // multi-scan plans (each scan gets the window) can push the aggregate
  // past the budget: it is a per-query target, not a hard cap.
  if (config_.engine.exec.morsel_window > 0) {
    per_query_window_ = config_.engine.exec.morsel_window;
  } else {
    const size_t fan_out =
        config_.max_in_flight * std::max<size_t>(1, config_.num_shards);
    per_query_window_ =
        std::max<size_t>(2, 4 * scan_pool_.num_threads() / fan_out);
  }
  engines_.reserve(config_.max_in_flight);
  drivers_.reserve(config_.max_in_flight);
  for (size_t i = 0; i < config_.max_in_flight; ++i) {
    EngineConfig cfg = config_.engine;
    cfg.exec.pool = &scan_pool_;
    cfg.exec.morsel_window = per_query_window_;
    if (config_.num_shards > 1) {
      shard::ShardExecConfig scfg;
      scfg.num_shards = config_.num_shards;
      scfg.policy = config_.shard_policy;
      scfg.engine = cfg;
      scfg.retry = config_.retry;
      coordinators_.push_back(
          std::make_unique<shard::ShardCoordinator>(catalog, scfg));
    } else {
      engines_.push_back(std::make_unique<Engine>(catalog, cfg));
    }
  }
  for (size_t i = 0; i < config_.max_in_flight; ++i) {
    drivers_.emplace_back([this, i] { DriverLoop(i); });
  }
}

QueryService::~QueryService() {
  std::deque<Task> orphaned;
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
    orphaned.swap(queue_);
  }
  work_available_.NotifyAll();
  for (Task& task : orphaned) {
    Finish(task.state, Status::Unavailable("query service shutting down"),
           MsSince(task.submitted_at));
  }
  for (std::thread& d : drivers_) d.join();
}

void QueryService::Finish(const std::shared_ptr<Handle::State>& state,
                          Result<QueryResult> result, double queue_ms) {
  {
    MutexLock lock(&state->mutex);
    if (result.ok()) state->profile = result.value().profile;
    state->result = std::move(result);
    state->queue_ms = queue_ms;
    state->done_at = std::chrono::steady_clock::now();
    state->done = true;
  }
  state->cv.NotifyAll();
}

Result<QueryService::Handle> QueryService::Submit(PlanPtr plan) {
  if (!plan) return Status::InvalidArgument("null plan");
  Task task;
  task.plan = std::move(plan);
  task.state = std::make_shared<Handle::State>();
  task.submitted_at = std::chrono::steady_clock::now();
  if (config_.default_deadline.count() > 0) {
    task.deadline_ns = SteadyNowNs() + config_.default_deadline.count();
  }
  Handle handle(task.state);
  std::vector<Task> expired;
  Status admitted = Status::OK();
  {
    MutexLock lock(&mutex_);
    if (shutting_down_) {
      return Status::Unavailable("query service shutting down");
    }
    // Eager shedding (the "timer check in Submit"): queued queries whose
    // deadline already passed are dead weight — drop them before they count
    // against the capacity bound, so a live submission is never rejected in
    // favor of a corpse ahead of it. Their handles are finished below,
    // outside the service lock.
    if (config_.default_deadline.count() > 0 && !queue_.empty()) {
      const int64_t now_ns = SteadyNowNs();
      ServiceMetrics& metrics = GetServiceMetrics();
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->deadline_ns != 0 && now_ns >= it->deadline_ns) {
          ++stats_.completed;
          ++stats_.deadline_exceeded;
          ++stats_.shed_expired;
          const double waited_ms = MsSince(it->submitted_at);
          stats_.queue_wait_ms.Add(waited_ms);
          metrics.completed->Add();
          metrics.deadline_exceeded->Add();
          metrics.shed_expired->Add();
          metrics.queue_ms->Record(waited_ms);
          expired.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (config_.queue_capacity > 0 &&
        queue_.size() >= config_.queue_capacity) {
      ++stats_.rejected;
      GetServiceMetrics().rejected->Add();
      admitted = Status::ResourceExhausted("admission queue full");
    } else {
      // Trace sampling: every trace_every-th admitted query (the first one
      // included) carries a Trace; the driver threads the pointer through
      // to the engine / coordinator.
      if (config_.trace_every > 0 &&
          stats_.submitted % static_cast<int64_t>(config_.trace_every) == 0) {
        task.state->trace = std::make_unique<Trace>();
      }
      queue_.push_back(std::move(task));
      ++stats_.submitted;
      GetServiceMetrics().submitted->Add();
      stats_.peak_queue_depth = std::max(
          stats_.peak_queue_depth, static_cast<int64_t>(queue_.size()));
    }
  }
  // Outside the service lock: complete the shed queries' handles (Finish
  // takes the per-handle lock and wakes waiters) and wake a driver for the
  // admitted one.
  for (Task& t : expired) {
    Finish(t.state,
           Status::DeadlineExceeded("deadline expired in admission queue"),
           MsSince(t.submitted_at));
  }
  // Shedding can empty the queue with no driver involved; a concurrent
  // Drain() must get to re-check its predicate.
  if (!expired.empty()) idle_.NotifyAll();
  if (!admitted.ok()) return admitted;
  work_available_.NotifyOne();
  return handle;
}

Result<QueryResult> QueryService::Execute(PlanPtr plan) {
  Result<Handle> handle = Submit(std::move(plan));
  if (!handle.ok()) return handle.status();
  return handle.value().Await();
}

void QueryService::DriverLoop(size_t driver_index) {
  Engine* engine =
      engines_.empty() ? nullptr : engines_[driver_index].get();
  shard::ShardCoordinator* coordinator =
      coordinators_.empty() ? nullptr : coordinators_[driver_index].get();
  for (;;) {
    Task task;
    {
      MutexLock lock(&mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.Wait(&mutex_);
      }
      if (shutting_down_) return;  // the destructor drained the queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      stats_.peak_in_flight = std::max(stats_.peak_in_flight,
                                       static_cast<int64_t>(in_flight_));
    }
    const double queue_ms = MsSince(task.submitted_at);
    // A query cancelled while still queued is finished without executing;
    // an executing one polls the flag through its engine and aborts at the
    // next scan delivery.
    Trace* trace = task.state->trace.get();
    const auto exec_t0 = std::chrono::steady_clock::now();
    bool shed_expired = false;
    bool executed = false;
    Result<QueryResult> result = [&]() -> Result<QueryResult> {
      if (task.state->cancel.load(std::memory_order_acquire)) {
        return Status::Cancelled("query cancelled while queued");
      }
      // Lazy expiry at dequeue: a query whose deadline passed while it
      // waited is shed here, before it touches an engine or the shared
      // pool — expiry costs one clock read, not a pool share.
      if (DeadlinePassed(task.deadline_ns)) {
        shed_expired = true;
        return Status::DeadlineExceeded("deadline expired in admission queue");
      }
      executed = true;
      ExecuteOptions opts;
      opts.cancel = &task.state->cancel;
      opts.trace = trace;
      opts.deadline_ns = task.deadline_ns;
      if (coordinator != nullptr) return coordinator->Execute(task.plan, opts);
      return engine->Execute(task.plan, opts);
    }();
    const double exec_ms = MsSince(exec_t0);
    ServiceMetrics& metrics = GetServiceMetrics();
    metrics.completed->Add();
    metrics.queue_ms->Record(queue_ms);
    // Queries that never reached an engine (cancelled while queued, shed on
    // an expired deadline) contribute queue wait but no execution latency —
    // an exec_ms sample of ~0 would just dilute the percentiles.
    if (executed) metrics.exec_ms->Record(exec_ms);
    {
      // Completion counters settle before the waiter is released, so a
      // client reading stats() right after Await() sees its own query
      // completed...
      MutexLock lock(&mutex_);
      ++stats_.completed;
      stats_.queue_wait_ms.Add(queue_ms);
      if (executed) stats_.exec_ms.Add(exec_ms);
      if (result.ok()) {
        ++stats_.ok;
        metrics.ok->Add();
      } else if (result.status().code() == StatusCode::kCancelled) {
        ++stats_.cancelled;
        metrics.cancelled->Add();
      } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
        // Not a failure: the service kept its latency promise by giving up.
        ++stats_.deadline_exceeded;
        metrics.deadline_exceeded->Add();
        if (shed_expired) {
          ++stats_.shed_expired;
          metrics.shed_expired->Add();
        }
      } else {
        ++stats_.failed;
        metrics.failed->Add();
      }
    }
    Finish(task.state, std::move(result), queue_ms);
    {
      // ...while the in-flight slot — what Drain() watches — only clears
      // after the handle is done, so Drain returning guarantees every
      // admitted query's Handle reports done.
      MutexLock lock(&mutex_);
      --in_flight_;
    }
    idle_.NotifyAll();
  }
}

void QueryService::Drain() {
  MutexLock lock(&mutex_);
  while (!queue_.empty() || in_flight_ != 0) idle_.Wait(&mutex_);
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  {
    MutexLock lock(&mutex_);
    s = stats_;
  }
  // The pool tracks its own high-water at Submit time; surfacing it here
  // keeps the gauge exact without a sampler thread.
  s.peak_pool_queue_depth =
      static_cast<int64_t>(scan_pool_.queue_depth_high_water());
  return s;
}

size_t QueryService::in_flight() const {
  MutexLock lock(&mutex_);
  return in_flight_;
}

size_t QueryService::queue_depth() const {
  MutexLock lock(&mutex_);
  return queue_.size();
}

}  // namespace service
}  // namespace snowprune
