#ifndef SNOWPRUNE_EXEC_ENGINE_H_
#define SNOWPRUNE_EXEC_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/filter_pruner.h"
#include "core/join_pruner.h"
#include "core/limit_pruner.h"
#include "core/predicate_cache.h"
#include "core/pruning_stats.h"
#include "core/topk_pruner.h"
#include "exec/batch.h"
#include "exec/plan.h"
#include "storage/catalog.h"

namespace snowprune {

class ThreadPool;

/// Execution-layer configuration: how the post-pruning scan sets are fanned
/// out across worker threads ("the highly parallel execution layer", §2).
struct ExecConfig {
  /// Worker threads per query. 0 = hardware concurrency. 1 runs today's
  /// serial path bit-for-bit (no pool, no scheduler); >1 enables
  /// partition-parallel scans, which return byte-identical results AND
  /// identical PruningStats (batches are delivered in scan-set order and
  /// the consumer re-checks the top-k boundary at delivery time; wasted
  /// worker lookahead is surfaced as PruningStats::speculative_loads).
  /// A join build, top-k, sort or aggregate reading a parallel scan pushes
  /// its per-row work onto the scan's workers as a morsel stage, with the
  /// same byte-identity (see each operator's header).
  /// Ignored when `pool` is injected (the pool's width decides).
  int num_threads = 0;
  /// Injected worker pool (not owned; must outlive the engine). Service
  /// mode: many engines run queries concurrently against ONE shared pool
  /// instead of each constructing its own, so total worker-thread count —
  /// and the morsel backlog competing for it — is bounded service-wide.
  /// nullptr (default): the engine lazily creates a private pool of
  /// `num_threads` workers, as before.
  ThreadPool* pool = nullptr;
  /// Morsels buffered or in flight ahead of the consumer per scan
  /// (memory bound). 0 = 4 * the executing pool's width — the *shared*
  /// pool's thread count when one is injected, so service-mode memory
  /// bounds follow the real worker fleet, not a per-query knob.
  size_t morsel_window = 0;
  /// Row budget for morsel formation: consecutive scan-set partitions are
  /// batched into one morsel until their combined (zone-map) row count
  /// reaches this, so many tiny post-pruning partitions amortize scheduling
  /// overhead instead of drowning in it. 0 = one partition per morsel.
  size_t morsel_min_rows = 4096;
  /// Run the morsel machinery even when num_threads == 1 (a pool with one
  /// worker). Off by default — the serial path needs no pool at all; this
  /// exists to measure pure parallel-path overhead (bench_headline).
  bool force_parallel = false;
  /// Inert: the bytecode expression tier it switched is gone and every scan
  /// runs the vectorized interpreter. Kept only because the repo benchmark's
  /// reference config (perfbench/src/check.cc) still assigns it; delete it
  /// together with that assignment.
  bool specialize = true;
};

/// Engine-wide configuration: which pruning techniques run and how they are
/// parameterized. Defaults mirror the paper's production setup (everything
/// on); benches toggle individual techniques for ablations.
struct EngineConfig {
  /// Compile-time filter pruning (§3) with fully-matching classification
  /// (§4.2), once per scan.
  bool enable_filter_pruning = true;
  bool enable_limit_pruning = true;
  bool enable_topk_pruning = true;
  bool enable_join_pruning = true;

  OrderStrategy topk_order_strategy = OrderStrategy::kFullSort;
  BoundaryInitMode topk_boundary_init = BoundaryInitMode::kStricter;

  /// Optional §8.2 predicate cache: scan and top-k entries (not owned).
  PredicateCache* predicate_cache = nullptr;

  ExecConfig exec;
};

/// How a LIMIT query fared under LIMIT pruning — the categories of the
/// paper's Table 2, plus plan-shape rejection.
enum class LimitClassification {
  kNotALimitQuery,
  kAlreadyMinimal,
  kUnsupportedShape,  ///< LIMIT not pushable to any scan (§4.3).
  kNoFullyMatching,
  kPrunedToZero,
  kPrunedToOne,
  kPrunedToMany,
};

const char* ToString(LimitClassification c);

class GatherSourceOp;
class QueryProfile;
class Trace;

namespace shard {
class ShardCoordinator;
}  // namespace shard

/// Everything a query execution reports back.
struct QueryResult {
  std::vector<Row> rows;
  Schema schema;
  PruningStats stats;
  double wall_ms = 0.0;
  LimitClassification limit_class = LimitClassification::kNotALimitQuery;
  bool topk_pruning_attached = false;
  bool predicate_cache_hit = false;
  /// A hit was served by a k-sufficient entry: the LIMIT returned *some*
  /// offset + k qualifying rows, not necessarily an uncached run's.
  bool predicate_cache_limit_hit = false;
  int64_t scan_set_bytes = 0;  ///< Serialized scan-set size shipped to compute.
  /// EXPLAIN ANALYZE-style per-operator report. Built only for traced
  /// executions (ExecuteOptions::trace set); null otherwise. Shared so the
  /// service can keep it on the query handle after the result moves on.
  std::shared_ptr<QueryProfile> profile;
  /// Shard slice scans this query re-ran after transient faults (sharded
  /// execution only; 0 elsewhere). A non-zero count with an OK status means
  /// the retry layer absorbed the faults — the rows above are byte-identical
  /// to a fault-free run.
  int64_t shard_retries = 0;
};

/// Per-call execution options (the plain Execute(plan, cancel) overload is
/// the common path; the sharded coordinator uses the extended knobs).
struct ExecuteOptions {
  /// Caller-owned cancellation flag (see Execute's contract).
  const std::atomic<bool>* cancel = nullptr;
  /// Pre-resolved table snapshot. When set, the engine skips its own catalog
  /// snapshot and compiles against exactly these table versions — the shard
  /// coordinator builds its shard map from the same version it compiles and
  /// scatters against, so DML (Catalog::ReplaceTable) stays snapshot-atomic
  /// across the whole scatter.
  const std::map<std::string, std::shared_ptr<Table>>* tables = nullptr;
  /// Per-query trace (caller-owned, one query at a time). When set, the
  /// engine records compile/execute spans, operators meter themselves into
  /// a QueryProfile attached to the result, and pool workers record morsel
  /// spans (merged at delivery). Null — the default — skips every metering
  /// site on its first branch.
  Trace* trace = nullptr;
  /// Absolute steady-clock deadline in ns (see SteadyNowNs); 0 = none. Past
  /// it, execution stops on the cancellation plumbing (scans abandon their
  /// schedulers within ~a morsel window) and Execute returns
  /// kDeadlineExceeded. Checked at entry, per root batch, and per partition
  /// on workers.
  int64_t deadline_ns = 0;
};

/// Compiles and executes plans against a catalog, applying the paper's four
/// pruning techniques in their §7 order: filter pruning and LIMIT pruning at
/// compile time; join pruning and top-k pruning at runtime via sideways
/// information passing.
class Engine {
 public:
  explicit Engine(Catalog* catalog, EngineConfig config = EngineConfig());
  ~Engine();

  /// Deepest plan expression Execute accepts, counted in nodes on its
  /// longest root-to-leaf path. Binding, analysis and evaluation recurse
  /// once per level, so a deeper expression could overflow a thread's
  /// stack. The generated workloads and tests reach depth 7.
  static constexpr size_t kMaxExprDepth = 256;

  /// Compiles and runs `plan`. The plan's expressions get (re)bound to the
  /// referenced tables' schemas as a side effect. The plan must be a tree:
  /// a node reached twice (shared by two parents, or in a cycle) fails with
  /// InvalidArgument before anything compiles, as does an expression deeper
  /// than kMaxExprDepth.
  ///
  /// `cancel`, when non-null, is a caller-owned flag polled throughout
  /// execution (it must outlive the call): once set, scans stop delivering
  /// and abandon their schedulers — unstarted morsels never reach the pool,
  /// so a cancelled query frees its share of a shared pool within about one
  /// in-flight window — and Execute returns Status::Cancelled.
  Result<QueryResult> Execute(const PlanPtr& plan,
                              const std::atomic<bool>* cancel = nullptr);

  /// Extended entry point: snapshot injection, tracing and a deadline (see
  /// ExecuteOptions).
  Result<QueryResult> Execute(const PlanPtr& plan, const ExecuteOptions& opts);

  const EngineConfig& config() const { return config_; }
  EngineConfig* mutable_config() { return &config_; }

  /// The sharded-leaf seam (shard::ShardCoordinator's side of the one
  /// compile path). With a leaf, the plan's scan compiles to a
  /// GatherSourceOp: Probe() runs before per-partition filter pruning,
  /// Scatter() runs between compile and the root loop, and the root loop
  /// becomes the "gather" span.
  class ShardedLeaf {
   public:
    virtual ~ShardedLeaf() = default;
    /// Cross-shard pruning: `full` minus the partitions of every shard
    /// whose merged zone maps exclude the (bound) predicate.
    virtual ScanSet Probe(const ExprPtr& predicate, const ScanSet& full) = 0;
    /// Scans the gather's final scan set shard by shard and installs the
    /// answers on it. The slice scans run on `pool` with morsel window
    /// `window` — the query's resolved pool, null when the engine runs
    /// serial. `query_span` parents the scatter's spans.
    virtual Status Scatter(GatherSourceOp* gather, ThreadPool* pool,
                           size_t window, uint32_t query_span) = 0;
  };

 private:
  friend class shard::ShardCoordinator;
  struct CompileContext;

  Result<QueryResult> Execute(const PlanPtr& plan, const ExecuteOptions& opts,
                              ShardedLeaf* leaf);
  Result<OperatorPtr> Compile(const PlanPtr& plan, CompileContext* ctx);

  Catalog* catalog_;
  EngineConfig config_;
  /// Lazily created worker pool, shared across this engine's queries;
  /// recreated when ExecConfig::num_threads changes between executions.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_ENGINE_H_
