#ifndef SNOWPRUNE_SHARD_COORDINATOR_H_
#define SNOWPRUNE_SHARD_COORDINATOR_H_

#include <map>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "shard/shard_map.h"
#include "storage/catalog.h"

namespace snowprune {
namespace shard {

/// Retry policy for transient shard failures. A failed shard's slice is
/// scanned afresh against the same snapshot, so a successful retry is
/// byte-identical to a first-try success; terminal (non-retryable) failures
/// surface immediately.
struct RetryPolicy {
  /// Attempts per shard, first try included. 1 disables retries.
  int max_attempts = 3;
  /// Total retries allowed across all shards of one query (a storm of
  /// failures gives up instead of multiplying scatter work).
  int retry_budget = 8;
  /// Backoff before retry r (1-based) is min(max_backoff_us,
  /// base_backoff_us << (r-1)) ± 25% deterministic jitter. The defaults are
  /// deliberately tiny: in-process retries shouldn't stall a query, and
  /// tests need storms to finish fast.
  int64_t base_backoff_us = 100;
  int64_t max_backoff_us = 10000;
  /// Seed for the jitter hash (see RetryBackoffUs).
  uint64_t jitter_seed = 42;
};

/// The exact backoff-with-jitter schedule the coordinator sleeps between
/// attempts — exposed so tests can assert the sequence is deterministic.
/// `retry` is 1-based (the delay before the first retry).
int64_t RetryBackoffUs(const RetryPolicy& policy, int retry);

/// Sharded-execution sizing: how many shards the catalog is partitioned
/// into and how partitions are placed. `engine` configures the
/// coordinator's one engine (pool injection, pruning toggles, ...), which
/// compiles and gathers every query, sharded or not; its pool and morsel
/// window also run every shard's slice scan.
struct ShardExecConfig {
  size_t num_shards = 1;
  ShardPolicy policy = ShardPolicy::kRange;
  EngineConfig engine;
  RetryPolicy retry;
};

/// Scatter-gather query execution over a sharded catalog — the paper's §4
/// scheduler setting: pruning consults partition metadata *before* any
/// worker is contacted, and a shard whose merged zone maps exclude the
/// predicate never sees the query at all (the new top level of the pruning
/// hierarchy, metered as PruningStats::shards_{total,pruned}).
///
/// A supported plan (a join-free single-scan chain of scan / project /
/// limit / top-k / sort / aggregate) runs through the ordinary
/// Engine::Execute with this coordinator as its sharded leaf
/// (Engine::ShardedLeaf), so the engine's one compile path makes every
/// pruning decision and builds every operator. The coordinator adds only
/// what is specific to sharding:
///
///  1. compile: the engine runs its compile-time pruning sequence globally.
///     Before §3 filter pruning, the coordinator's probe drops the
///     partitions of every shard whose merged zone maps exclude the
///     predicate; §5.3/§5.4 top-k ordering + boundary initialization and
///     §4 LIMIT pruning follow as usual, producing one final global scan
///     set on a GatherSourceOp in place of the table scan.
///  2. scatter: the coordinator slices that scan set by shard ownership
///     (partitions already skippable under the initialized top-k boundary
///     are dropped before contact) and opens one TableScanOp per surviving
///     shard over exactly its slice of the one shared table snapshot, with
///     the compile's bound predicate. All slice scans open up front on the
///     engine's pool, whose workers load, filter and box each partition
///     into one batch; the calling thread then drains the slices in shard
///     order (serially, on the calling thread, when the engine has no
///     pool), re-scanning a slice after a transient fault.
///  3. gather: the GatherSourceOp replays each shard's batches in global
///     scan-set order, through the *real* operator pipeline (limit /
///     top-k / sort / aggregate) with the top-k boundary consulted before
///     each partition — the same consumer-side merge discipline the
///     parallel engine uses, so rows AND per-table PruningStats are
///     byte-identical to a single-engine serial run at every (shard count ×
///     thread count), with the shard counters strictly additive on top.
///
/// Unsupported shapes (joins, multi-scan plans) and a configuration the
/// scatter cannot serve (a predicate cache) run on the same engine without
/// a leaf — trivially identical.
///
/// Thread safety: a coordinator executes one query at a time (the query
/// service gives each driver thread its own coordinator) and starts no
/// threads of its own: its slice scans' morsels run on the engine's pool,
/// everything else on the calling thread.
class ShardCoordinator {
 public:
  /// Per-execution observability (valid until the next Execute call).
  struct ExecInfo {
    bool sharded = false;  ///< Scatter/gather path (vs single-engine fallback).
    size_t shards_contacted = 0;
    /// Per shard: excluded by the merged-zone-map probe (cross-shard level).
    std::vector<uint8_t> summary_pruned;
    /// Per shard: scanned a slice (its share of the final scan set, minus
    /// init-boundary skips, was non-empty).
    std::vector<uint8_t> contacted;
    /// Slice re-scans after transient faults (summed over shards; 0 on a
    /// fault-free run).
    int64_t retries = 0;
  };

  ShardCoordinator(Catalog* catalog, ShardExecConfig config);
  ~ShardCoordinator();

  /// Compiles, prunes the shard map, scatters, gathers. `options` works as
  /// for Engine::Execute:
  ///  - `cancel` and `deadline_ns` reach every slice scan and are checked
  ///    between coordinator phases and before each retry backoff; past the
  ///    deadline the query returns kDeadlineExceeded.
  ///  - `trace` records compile/scatter/gather spans. Under the scatter span
  ///    sit a "shard.scan" span per contacted shard and attempt, holding
  ///    its "scan.morsel" spans, and a "shard.retry" span per retry. The
  ///    result gets an EXPLAIN ANALYZE profile whose per-node pruning
  ///    counters — all on the gather source, where the coordinator meters —
  ///    reconcile exactly against the query's PruningStats.
  ///  - `tables` is replaced on the sharded path by the coordinator's own
  ///    snapshot of the scanned table, which its shard map is built from.
  Result<QueryResult> Execute(const PlanPtr& plan,
                              const ExecuteOptions& options = {});

  const ExecInfo& last_exec() const { return last_exec_; }
  const ShardExecConfig& config() const { return config_; }

 private:
  class ScatterLeaf;

  /// The cached shard map for the table version, rebuilt after DML: a
  /// swapped table object (ReplaceTable) or in-place partition DML.
  const ShardMap& MapFor(const std::string& name, const Table& table);

  Catalog* catalog_;
  ShardExecConfig config_;
  /// Compiles and gathers every query, sharded or not.
  Engine engine_;
  std::map<std::string, ShardMap> map_cache_;
  ExecInfo last_exec_;
};

}  // namespace shard
}  // namespace snowprune

#endif  // SNOWPRUNE_SHARD_COORDINATOR_H_
