#include "exec/parallel/pipeline.h"

#include <atomic>

#include "common/metrics.h"

namespace snowprune {

namespace {

std::atomic<int64_t> g_stage_tasks{0};

// The process-wide counter doubles as a registry gauge (the per-query view
// lives on each traced query's Trace). The callback target is this
// namespace-scope atomic — immortal, so the registry's lifetime rule holds
// trivially.
[[maybe_unused]] const bool g_pipeline_gauges_registered = [] {
  MetricsRegistry::Instance().RegisterCallbackGauge(
      "pipeline.stage_tasks",
      [] { return g_stage_tasks.load(std::memory_order_relaxed); });
  return true;
}();

}  // namespace

int64_t PipelineCounters::stage_tasks() {
  return g_stage_tasks.load(std::memory_order_relaxed);
}

void PipelineCounters::IncStageTasks() {
  g_stage_tasks.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace snowprune
