// Per-layer attribution of traced queries. Everything here reads what the
// program already emits (span trees, QueryProfile, PruningStats, registry
// counters) or times calls into a layer's public functions from outside.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "common/metrics.h"
#include "common/stats_collector.h"
#include "common/trace.h"
#include "core/filter_pruner.h"
#include "exec/profile.h"
#include "expr/evaluator.h"

namespace perfbench {

using snowprune::ProfileNode;
using snowprune::PruningStats;
using snowprune::StatsCollector;
using snowprune::Trace;
using snowprune::TraceSpan;

namespace {

enum Layer { kService, kShard, kExec, kExpr, kNumLayers };

Layer LayerOf(const std::string& span) {
  if (span == "scatter" || span == "gather" || span == "shard.retry") {
    return kShard;
  }
  if (span == "compile.specialize") return kExpr;
  return kExec;
}

/// Operator kinds whose self time is reported, by QueryProfile node name.
const char* const kOps[][2] = {{"HashAggregate", "agg"},
                               {"HashJoin", "join"},
                               {"TopK", "topk"},
                               {"Sort", "sort"}};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Length of the union of [start, end) intervals.
int64_t Coverage(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

void CollectScans(const PlanPtr& plan, std::vector<const snowprune::PlanNode*>* out) {
  if (!plan) return;
  if (plan->kind == snowprune::PlanNode::Kind::kScan) out->push_back(plan.get());
  CollectScans(plan->child, out);
  CollectScans(plan->left, out);
  CollectScans(plan->right, out);
}

}  // namespace

struct LayerAccumulator {
  int64_t queries = 0;
  double latency_ms = 0.0;
  StatsCollector handoff_ms, queue_ms;
  double critical_ms[kNumLayers] = {0, 0, 0, 0};
  /// Hand-off plus the union of the `query` span's child spans.
  double covered_ms = 0.0;
  double compile_ms = 0.0, execute_ms = 0.0, root_self_ms = 0.0;
  double scan_worker_ms = 0.0, scatter_ms = 0.0, gather_ms = 0.0;
  double jit_compile_ms = 0.0;
  int64_t morsels = 0, rows_out = 0;
  std::map<std::string, double> op_ms;
  PruningStats stats;
  double filter_prune_us = 0.0;
  double eval_ns = 0.0;
  int64_t eval_rows = 0;
  std::map<std::string, int64_t> counters;
  StatsCollector insert_ms;
  int64_t insert_rows = 0;
  double setup_ingest_s = 0.0;
  int64_t setup_rows = 0;
  double untraced_qps = 0.0, traced_qps = 0.0;
};

LayerReport::LayerReport() : acc_(std::make_unique<LayerAccumulator>()) {}
LayerReport::~LayerReport() = default;

void LayerReport::AddQuery(const Op& op, double latency_ms, double queue_ms,
                           const Trace* trace,
                           const snowprune::QueryProfile* profile,
                           const QueryResult& result, const Catalog& catalog) {
  LayerAccumulator& a = *acc_;
  ++a.queries;
  a.latency_ms += latency_ms;
  a.queue_ms.Add(queue_ms);
  a.stats.Merge(result.stats);
  a.rows_out += static_cast<int64_t>(result.rows.size());
  a.execute_ms += result.wall_ms;

  // ---- Span tree: per-layer self times and the critical-path split. ----
  const std::vector<TraceSpan>& spans = trace->spans();
  std::map<uint32_t, size_t> index;
  std::map<uint32_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    children[spans[i].parent].push_back(i);
  }
  const TraceSpan* root = nullptr;
  for (size_t i : children[0]) {
    if (spans[i].name == "query") root = &spans[i];
  }
  if (root == nullptr) return;
  const int64_t root_start = root->start_ns;
  const int64_t root_end = root->start_ns + root->duration_ns;
  a.handoff_ms.Add(latency_ms - Ms(root->duration_ns));
  a.critical_ms[kService] += latency_ms - Ms(root->duration_ns);
  {
    std::vector<std::pair<int64_t, int64_t>> top;
    for (size_t c : children[root->id]) {
      const int64_t cs = std::max(root_start, spans[c].start_ns);
      const int64_t ce =
          std::min(root_end, spans[c].start_ns + spans[c].duration_ns);
      if (ce > cs) top.emplace_back(cs, ce);
    }
    a.covered_ms += latency_ms - Ms(root->duration_ns) + Ms(Coverage(top));
  }

  auto self_ns = [&](size_t i) {
    std::vector<std::pair<int64_t, int64_t>> cover;
    const int64_t s = spans[i].start_ns, e = s + spans[i].duration_ns;
    for (size_t c : children[spans[i].id]) {
      const int64_t cs = std::max(s, spans[c].start_ns);
      const int64_t ce = std::min(e, spans[c].start_ns + spans[c].duration_ns);
      if (ce > cs) cover.emplace_back(cs, ce);
    }
    return spans[i].duration_ns - Coverage(std::move(cover));
  };
  std::vector<int> depth(spans.size(), -1);
  std::function<int(size_t)> depth_of = [&](size_t i) -> int {
    if (depth[i] >= 0) return depth[i];
    auto p = index.find(spans[i].parent);
    depth[i] = p == index.end() ? 0 : depth_of(p->second) + 1;
    return depth[i];
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    depth_of(i);
    if (s.name == "scan.morsel") {
      a.scan_worker_ms += Ms(s.duration_ns);
      ++a.morsels;
    } else if (s.name == "compile.specialize") {
      a.jit_compile_ms += Ms(s.duration_ns);
    } else if (s.parent == root->id && s.name == "compile") {
      a.compile_ms += Ms(self_ns(i));
    } else if (s.parent == root->id && s.name == "scatter") {
      a.scatter_ms += Ms(s.duration_ns);
    } else if (s.parent == root->id && s.name == "gather") {
      a.gather_ms += Ms(s.duration_ns);
    }
    if (s.parent == root->id && (s.name == "execute" || s.name == "gather") &&
        profile != nullptr && profile->root != nullptr) {
      // Time in the root loop outside the operator tree: moving rows into
      // the result, Open/Close.
      a.root_self_ms += Ms(s.duration_ns - profile->root->ns);
    }
  }
  // Critical path: every instant of the query span goes to the deepest span
  // open at that instant (worker spans included), so the layers partition
  // the client's wait together with the service hand-off.
  std::vector<int64_t> cuts;
  for (const TraceSpan& s : spans) {
    cuts.push_back(std::clamp(s.start_ns, root_start, root_end));
    cuts.push_back(std::clamp(s.start_ns + s.duration_ns, root_start, root_end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const int64_t lo = cuts[c], hi = cuts[c + 1];
    int best_depth = -1;
    Layer best = kExec;
    for (size_t i = 0; i < spans.size(); ++i) {
      const TraceSpan& s = spans[i];
      if (s.start_ns <= lo && s.start_ns + s.duration_ns >= hi &&
          depth[i] > best_depth) {
        best_depth = depth[i];
        best = LayerOf(s.name);
      }
    }
    a.critical_ms[best] += Ms(hi - lo);
  }

  // ---- Operator self times from the profile. ----
  if (profile != nullptr && profile->root != nullptr) {
    std::function<void(const ProfileNode*)> walk = [&](const ProfileNode* n) {
      int64_t self = n->ns;
      for (const ProfileNode* c : n->children) {
        self -= c->ns;
        walk(c);
      }
      for (const auto& op_name : kOps) {
        if (n->name == op_name[0]) a.op_ms[op_name[1]] += Ms(self);
      }
    };
    walk(profile->root);
  }

  // ---- Replays: compile-time filter pruning and predicate evaluation. ----
  std::vector<const snowprune::PlanNode*> scans;
  CollectScans(op.plan, &scans);
  snowprune::EvalScratch scratch;
  std::vector<uint32_t> selection;
  for (const snowprune::PlanNode* scan : scans) {
    if (scan->predicate == nullptr) continue;
    std::shared_ptr<Table> table = catalog.GetTable(scan->table);
    if (table == nullptr) continue;
    auto t0 = std::chrono::steady_clock::now();
    snowprune::FilterPruner pruner(scan->predicate);
    snowprune::FilterPruneResult pruned =
        pruner.Prune(*table, table->FullScanSet());
    auto t1 = std::chrono::steady_clock::now();
    a.filter_prune_us +=
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    // Evaluate over (up to 32 of) the partitions the filter could not prune.
    const size_t n = std::min<size_t>(32, pruned.scan_set.size());
    int64_t rows = 0;
    auto e0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      const auto& part = table->partition_metadata(pruned.scan_set[i]);
      snowprune::ComputeSelection(*scan->predicate, part, &selection, &scratch);
      rows += part.row_count();
    }
    auto e1 = std::chrono::steady_clock::now();
    a.eval_ns += std::chrono::duration<double, std::nano>(e1 - e0).count();
    a.eval_rows += rows;
  }
}

void LayerReport::AddCounters(const std::map<std::string, int64_t>& deltas) {
  for (const auto& [name, v] : deltas) acc_->counters[name] += v;
}

void LayerReport::AddInsert(double ms, int64_t rows) {
  acc_->insert_ms.Add(ms);
  acc_->insert_rows += rows;
}

void LayerReport::SetSetup(double ingest_s, int64_t rows) {
  acc_->setup_ingest_s = ingest_s;
  acc_->setup_rows = rows;
}

void LayerReport::SetOverhead(double untraced_qps, double traced_qps) {
  acc_->untraced_qps = untraced_qps;
  acc_->traced_qps = traced_qps;
}

std::map<std::string, double> LayerReport::Metrics() const {
  const LayerAccumulator& a = *acc_;
  const double q = static_cast<double>(std::max<int64_t>(1, a.queries));
  const double lat = std::max(1e-9, a.latency_ms);
  auto counter = [&](const char* name) {
    auto it = a.counters.find(name);
    return it == a.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double total = static_cast<double>(a.stats.total_partitions);
  std::map<std::string, double> m;
  m["service.handoff_ms_p50"] = a.handoff_ms.empty() ? 0 : a.handoff_ms.Median();
  m["service.queue_wait_ms_p95"] =
      a.queue_ms.empty() ? 0 : a.queue_ms.Percentile(95);
  m["shard.sharded_query_ratio"] = counter("shard.queries_sharded") / q;
  m["shard.fanout_per_query"] = counter("shard.scatter_fanout") / q;
  m["shard.pruned_ratio"] = ratio(static_cast<double>(a.stats.shards_pruned),
                                  static_cast<double>(a.stats.shards_total));
  m["shard.retries_per_query"] = counter("shard.retries") / q;
  m["shard.scatter_share"] = a.scatter_ms / lat;
  m["shard.gather_share"] = a.gather_ms / lat;
  m["exec.execute_ms_mean"] = a.execute_ms / q;
  m["exec.compile_ms_mean"] = a.compile_ms / q;
  m["exec.scan_worker_ms_mean"] = a.scan_worker_ms / q;
  m["exec.morsels_per_query"] = static_cast<double>(a.morsels) / q;
  m["exec.pool_tasks_per_query"] = counter("pool.tasks") / q;
  m["exec.root_self_ms_mean"] = a.root_self_ms / q;
  for (const auto& op_name : kOps) {
    auto it = a.op_ms.find(op_name[1]);
    m[std::string("exec.op_share.") + op_name[1]] =
        (it == a.op_ms.end() ? 0.0 : it->second) / lat;
  }
  m["exec.rows_scanned_per_query"] =
      static_cast<double>(a.stats.scanned_rows) / q;
  m["exec.rows_out_per_query"] = static_cast<double>(a.rows_out) / q;
  m["exec.ns_per_scanned_row"] =
      ratio(a.execute_ms * 1e6, static_cast<double>(a.stats.scanned_rows));
  m["exec.speculative_load_ratio"] =
      ratio(static_cast<double>(a.stats.speculative_loads),
            static_cast<double>(a.stats.scanned_partitions +
                                a.stats.speculative_loads));
  m["core.filter_pruned_ratio"] =
      ratio(static_cast<double>(a.stats.pruned_by_filter), total);
  m["core.limit_pruned_ratio"] =
      ratio(static_cast<double>(a.stats.pruned_by_limit), total);
  m["core.topk_pruned_ratio"] =
      ratio(static_cast<double>(a.stats.pruned_by_topk), total);
  m["core.join_pruned_ratio"] =
      ratio(static_cast<double>(a.stats.pruned_by_join), total);
  m["core.filter_prune_us_mean"] = a.filter_prune_us / q;
  m["core.predcache_hit_ratio"] =
      ratio(counter("predcache.hits"),
            counter("predcache.hits") + counter("predcache.misses"));
  m["expr.eval_ns_per_row"] =
      ratio(a.eval_ns, static_cast<double>(a.eval_rows));
  m["expr.jit_compile_share"] = a.jit_compile_ms / lat;
  m["expr.jit_hits_per_query"] = counter("jit.hits") / q;
  m["expr.jit_fallbacks_per_query"] = counter("jit.fallbacks") / q;
  m["storage.loads_per_query"] = counter("storage.loads") / q;
  m["storage.rows_loaded_per_query"] = counter("storage.loaded_rows") / q;
  const double ingest_s =
      a.setup_ingest_s + (a.insert_ms.empty() ? 0.0
                                              : a.insert_ms.Mean() *
                                                    static_cast<double>(
                                                        a.insert_ms.count()) /
                                                    1e3);
  m["storage.ingest_us_per_row"] =
      ratio(ingest_s * 1e6, static_cast<double>(a.setup_rows + a.insert_rows));
  m["storage.setup_ingest_s"] = a.setup_ingest_s;
  m["trace.overhead_ratio"] = ratio(a.untraced_qps, a.traced_qps);
  m["trace.reconcile_ratio"] = a.covered_ms / lat;
  // Critical-path split: service and exec work on every query; shard and
  // expr only on some workloads, so those are shares of client latency.
  m["layer.service_ms_mean"] = a.critical_ms[kService] / q;
  m["layer.exec_ms_mean"] = a.critical_ms[kExec] / q;
  m["layer.shard_share"] = a.critical_ms[kShard] / lat;
  m["layer.expr_share"] = a.critical_ms[kExpr] / lat;
  return m;
}

std::string LayerReport::Text(const std::string& workload) const {
  const LayerAccumulator& a = *acc_;
  const double q = static_cast<double>(std::max<int64_t>(1, a.queries));
  std::string out;
  char line[256];
  auto add = [&](const char* layer, const char* metric, double v,
                 const char* unit) {
    std::snprintf(line, sizeof(line), "  %-8s %-30s %14.4f %s\n", layer,
                  metric, v, unit);
    out += line;
  };
  std::snprintf(line, sizeof(line),
                "per-layer report: %s (%lld traced queries)\n",
                workload.c_str(), static_cast<long long>(a.queries));
  out += line;
  const std::map<std::string, double> m = Metrics();
  for (const auto& [name, v] : m) {
    const std::string layer = name.substr(0, name.find('.'));
    add(layer.c_str(), name.substr(name.find('.') + 1).c_str(), v, "");
  }
  // The same time figures as means in ms (the JSON gives some as shares).
  add("shard", "scatter_ms_mean", a.scatter_ms / q, "ms");
  add("shard", "gather_ms_mean", a.gather_ms / q, "ms");
  for (const auto& op_name : kOps) {
    auto it = a.op_ms.find(op_name[1]);
    add("exec", (std::string("op_ms_mean.") + op_name[1]).c_str(),
        (it == a.op_ms.end() ? 0.0 : it->second) / q, "ms");
  }
  add("expr", "jit_compile_ms_mean", a.jit_compile_ms / q, "ms");
  if (!a.insert_ms.empty()) {
    add("storage", "ingest_ms_mean (INSERT)", a.insert_ms.Mean(), "ms");
    add("storage", "write_p50_ms", a.insert_ms.Median(), "ms");
  }
  const double covered = a.covered_ms / std::max(1e-9, a.latency_ms);
  std::snprintf(line, sizeof(line),
                "critical path per query: service %.4f + shard %.4f + exec "
                "%.4f + expr %.4f ms of %.4f ms client latency\n",
                a.critical_ms[kService] / q, a.critical_ms[kShard] / q,
                a.critical_ms[kExec] / q, a.critical_ms[kExpr] / q,
                a.latency_ms / q);
  out += line;
  std::snprintf(line, sizeof(line),
                "reconciliation: service hand-off + compile/execute/scatter/"
                "gather spans = %.2f%% of client latency (%s)\n",
                100.0 * covered,
                std::abs(covered - 1.0) <= 0.05 ? "within 5%"
                                                : "OFF BY MORE THAN 5%");
  out += line;
  std::snprintf(line, sizeof(line),
                "tracing overhead: untraced %.2f qps, traced %.2f qps "
                "(ratio %.3f)\n",
                a.untraced_qps, a.traced_qps,
                a.traced_qps > 0 ? a.untraced_qps / a.traced_qps : 0.0);
  out += line;
  return out;
}

std::map<std::string, int64_t> ReadCounters() {
  auto& r = snowprune::MetricsRegistry::Instance();
  std::map<std::string, int64_t> c;
  for (const char* name :
       {"pool.tasks", "shard.queries_sharded", "shard.scatter_fanout",
        "shard.retries", "jit.hits", "jit.fallbacks", "predcache.hits",
        "predcache.misses"}) {
    c[name] = r.GetCounter(name)->Value();
  }
  return c;
}

}  // namespace perfbench
