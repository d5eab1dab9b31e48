#ifndef SNOWPRUNE_WORKLOAD_SIMULATOR_H_
#define SNOWPRUNE_WORKLOAD_SIMULATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats_collector.h"
#include "exec/engine.h"
#include "service/query_service.h"
#include "workload/query_gen.h"

namespace snowprune {
namespace workload {

/// Table 2-style breakdown of LIMIT pruning outcomes.
struct LimitBreakdown {
  int64_t already_minimal = 0;
  int64_t unsupported = 0;
  int64_t no_fully_matching = 0;
  int64_t pruned_to_one = 0;   ///< Includes LIMIT 0 (scan set emptied).
  int64_t pruned_to_many = 0;
  int64_t total() const {
    return already_minimal + unsupported + no_fully_matching + pruned_to_one +
           pruned_to_many;
  }
};

/// Aggregates produced by a simulation run; the figure/table benches print
/// slices of this.
struct SimulationResult {
  // Figure 1: pruning-ratio distributions over *eligible* queries.
  StatsCollector filter_ratios;
  StatsCollector limit_ratios;
  StatsCollector topk_ratios;
  StatsCollector join_ratios;

  // §9 conclusion numbers: ratios over queries where the technique
  // *successfully applied* (a stricter population than "eligible").
  StatsCollector limit_ratios_applied;
  StatsCollector filter_ratios_applied;

  // Partition-weighted filter pruning over predicated queries.
  int64_t filter_total_partitions = 0;
  int64_t filter_pruned_partitions = 0;
  double FilterPartitionWeightedRatio() const {
    return filter_total_partitions == 0
               ? 0.0
               : static_cast<double>(filter_pruned_partitions) /
                     static_cast<double>(filter_total_partitions);
  }

  // Table 1 mix.
  std::map<QueryClass, int64_t> class_counts;
  int64_t total_queries = 0;

  // Table 2.
  LimitBreakdown limit_with_predicate;
  LimitBreakdown limit_without_predicate;

  // Figure 11 flow: queries where a technique pruned >= 1 partition.
  int64_t flow_filter = 0;
  int64_t flow_limit = 0;
  int64_t flow_join = 0;
  int64_t flow_topk = 0;
  /// Key = technique subset string like "filter+join"; value = query count.
  std::map<std::string, int64_t> flow_combinations;

  // Headline (§1): partition-weighted global pruning.
  int64_t total_partitions = 0;
  int64_t total_pruned = 0;
  double OverallPruningRatio() const {
    return total_partitions == 0
               ? 0.0
               : static_cast<double>(total_pruned) /
                     static_cast<double>(total_partitions);
  }

  // Figure 12: occurrences per plan shape.
  std::map<std::string, int64_t> shape_occurrences;
};

/// Runs a sampled query population through the engine and aggregates
/// pruning statistics. The paper's measurement conventions are preserved:
/// ratios are relative to all partitions the query would otherwise process,
/// and each technique's distribution only includes queries where the
/// technique was applicable.
class Simulator {
 public:
  Simulator(QueryGenerator* generator, Engine* engine)
      : generator_(generator), engine_(engine) {}

  SimulationResult Run(size_t num_queries);

 private:
  QueryGenerator* generator_;
  Engine* engine_;
};

/// Multi-stream run parameters. Each client stream owns a QueryGenerator
/// configured from `gen`; stream i runs with seed `gen.seed + i` so streams
/// draw independent-but-reproducible query sequences. `identical_streams`
/// instead gives every stream the SAME seed — all streams replay one query
/// sequence, the extreme of the paper's §8.2 repetitive production traffic,
/// which maximizes predicate-cache hits and coalesced populations.
struct StreamDriverConfig {
  size_t num_streams = 4;
  size_t queries_per_stream = 200;
  bool identical_streams = false;
  /// Open-loop mode: instead of each stream keeping exactly one query
  /// outstanding (closed loop — the offered load self-throttles to the
  /// service's capacity), every stream submits on a Poisson arrival process
  /// and does NOT wait for completions between arrivals. This is the only
  /// mode that can show latency under overload: offered load above capacity
  /// makes queueing delay grow without bound (or spill into rejections when
  /// the admission queue is bounded) instead of silently flattening QPS.
  bool open_loop = false;
  /// Aggregate target arrival rate (queries/second) across all streams in
  /// open-loop mode; each stream runs an independent Poisson process of
  /// rate offered_qps / num_streams. Ignored in closed-loop mode.
  double offered_qps = 100.0;
  /// After the streams join, print the *service-side* latency breakdown —
  /// p50/p95/p99 of ServiceStats::queue_wait_ms and ::exec_ms — next to the
  /// client-observed numbers the driver already collects. The two views
  /// bracket the admission layer: client latency minus service execution
  /// latency is time spent queued.
  bool print_service_stats = false;
  QueryGenerator::Config gen;
};

/// What a multi-stream run measured, across all streams.
struct StreamDriverResult {
  double wall_ms = 0.0;  ///< First submit to last completion.
  int64_t queries_ok = 0;
  int64_t queries_failed = 0;
  /// Submissions bounced by the bounded admission queue (open-loop overload
  /// spills here rather than into unbounded latency). Not counted in
  /// queries_failed.
  int64_t queries_rejected = 0;
  /// Queries that completed with kDeadlineExceeded (shed while queued or
  /// stopped mid-execution). Not counted in queries_failed.
  int64_t queries_deadline_exceeded = 0;
  /// Shard slice-scan retries absorbed by successful queries — the overhead
  /// side of graceful degradation (retries/query in the bench ladder).
  int64_t shard_retries = 0;
  int64_t cache_hit_queries = 0;  ///< Queries served off the predicate cache.
  /// Cross-shard pruning level, summed across successful queries: shards
  /// holding partitions vs shards a query never contacted. Both zero when
  /// the service runs unsharded.
  int64_t shards_total = 0;
  int64_t shards_pruned = 0;

  /// Client-observed latency (admission-queue wait + execution), ms.
  StatsCollector latency_ms;
  /// Admission-queue wait alone, ms.
  StatsCollector queue_ms;
  /// Latency split by query class — the starvation check: p95 of point
  /// lookups vs full scans under mixed load.
  std::map<QueryClass, StatsCollector> latency_by_class;

  /// Successfully served queries per second. Rejected submissions and
  /// failed executions are excluded — they must not inflate throughput in
  /// exactly the overload regime a sweep is meant to characterize.
  double Qps() const {
    return wall_ms <= 0.0
               ? 0.0
               : static_cast<double>(queries_ok) / (wall_ms / 1000.0);
  }
};

/// Multi-stream workload driver: N client threads, each replaying the
/// production model against one shared QueryService. Closed-loop (default):
/// one query outstanding per stream — the classic capacity probe. Open-loop
/// (StreamDriverConfig::open_loop): Poisson arrivals at a configured
/// offered rate, submissions never wait for completions — the overload
/// probe. The service's admission layer decides how many queries actually
/// execute concurrently; the driver records what the clients see — QPS,
/// rejections, and the latency distribution (p50/p95/p99 via
/// StatsCollector::Percentile), where open-loop latency runs from a query's
/// arrival to its completion (queueing included).
class MultiStreamDriver {
 public:
  MultiStreamDriver(const Catalog* catalog,
                    std::vector<std::string> probe_tables,
                    std::vector<std::string> build_tables,
                    ProductionModel model)
      : catalog_(catalog),
        probe_tables_(std::move(probe_tables)),
        build_tables_(std::move(build_tables)),
        model_(std::move(model)) {}

  StreamDriverResult Run(service::QueryService* service,
                         const StreamDriverConfig& config);

 private:
  const Catalog* catalog_;
  std::vector<std::string> probe_tables_;
  std::vector<std::string> build_tables_;
  ProductionModel model_;
};

}  // namespace workload
}  // namespace snowprune

#endif  // SNOWPRUNE_WORKLOAD_SIMULATOR_H_
