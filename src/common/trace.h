#ifndef SNOWPRUNE_COMMON_TRACE_H_
#define SNOWPRUNE_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace snowprune {

/// Per-query tracing — the paper's "per query, which level pruned what,
/// where did the time go" telemetry (§7 / Figure 1) as a tree of spans.
///
/// Ownership and threading model, chosen so untraced queries pay nothing
/// and traced queries add no locks to the hot path:
///
///  - A Trace is owned by one query and mutated only by its consumer
///    thread (the driver running the operator loop). Every instrumented
///    site starts with `if (trace == nullptr)` — the untraced fast path is
///    a predictable not-taken branch on a pointer that is almost always
///    null.
///  - Pool workers never touch the Trace. A worker records its morsel
///    spans into a SpanBuffer that travels inside the morsel result; the
///    consumer merges the buffer when it receives the morsel, re-basing
///    span ids and parents. The scheduler's existing hand-off
///    synchronization is the only ordering needed.
///  - The sole cross-thread member is the per-query stage-task counter (a
///    relaxed atomic) — the query-scoped version of the process-wide
///    PipelineCounters.
///
/// Timestamps are absolute steady-clock nanoseconds (one clock per
/// process), so spans recorded by shard slice scans or pool workers align
/// with the parent trace without translation; renderers subtract the
/// trace's earliest start.

int64_t TraceNowNs();

struct TraceAnnotation {
  std::string key;
  int64_t int_value = 0;
  std::string str_value;
  bool is_string = false;
};

struct TraceSpan {
  uint32_t id = 0;      ///< 1-based within its Trace; 0 is "no span".
  uint32_t parent = 0;  ///< 0 = root of the trace.
  std::string name;
  int64_t start_ns = 0;     ///< Absolute steady-clock ns.
  int64_t duration_ns = 0;  ///< 0 while the span is open.
  uint64_t thread_id = 0;   ///< Hash of the recording thread's id.
  std::vector<TraceAnnotation> annotations;
};

/// A worker-local run of spans with buffer-local ids, recorded without any
/// synchronization and merged into the owning Trace by the consumer.
class SpanBuffer {
 public:
  uint32_t Begin(const char* name, uint32_t parent = 0);
  void End(uint32_t id);
  void AnnotateInt(uint32_t id, const char* key, int64_t value);

  bool empty() const { return spans_.empty(); }
  std::vector<TraceSpan>& spans() { return spans_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

 private:
  std::vector<TraceSpan> spans_;
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span; returns its id (use as `parent` for children and for
  /// EndSpan). Consumer thread only.
  uint32_t BeginSpan(const std::string& name, uint32_t parent = 0);
  void EndSpan(uint32_t id);
  void AnnotateInt(uint32_t id, const std::string& key, int64_t value);
  void AnnotateStr(uint32_t id, const std::string& key, std::string value);

  /// Splices a worker's buffer under `parent_id`, re-basing the buffer's
  /// local ids. Consumer thread only; the buffer is consumed.
  void MergeBuffer(SpanBuffer* buffer, uint32_t parent_id);

  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Per-query pipeline stage-task counter — the only Trace member workers
  /// update (relaxed; it counts, it orders nothing).
  void IncStageTasks() { stage_tasks_.fetch_add(1, std::memory_order_relaxed); }
  int64_t stage_tasks() const {
    return stage_tasks_.load(std::memory_order_relaxed);
  }

  /// Earliest span start, or 0 for an empty trace — the render epoch.
  int64_t EpochNs() const;

  std::string ToJson() const;
  /// Indented tree, children in recording order, times relative to epoch.
  std::string ToText() const;

 private:
  std::vector<TraceSpan> spans_;
  std::atomic<int64_t> stage_tasks_{0};
};

/// RAII span over a possibly-null trace: with `trace == nullptr` the whole
/// object is two pointer-sized no-ops.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name, uint32_t parent = 0)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->BeginSpan(name, parent);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when untraced — safe to pass straight through as a parent id.
  uint32_t id() const { return id_; }
  void AnnotateInt(const char* key, int64_t value) {
    if (trace_ != nullptr) trace_->AnnotateInt(id_, key, value);
  }

 private:
  Trace* trace_;
  uint32_t id_ = 0;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_COMMON_TRACE_H_
