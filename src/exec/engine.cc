#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <initializer_list>
#include <map>
#include <set>

#include "common/check.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/trace.h"
#include "exec/ops.h"
#include "exec/profile.h"
#include "exec/parallel/thread_pool.h"
#include "exec/scan_op.h"
#include "exec/topk_op.h"

namespace snowprune {

const char* ToString(LimitClassification c) {
  switch (c) {
    case LimitClassification::kNotALimitQuery: return "not-a-limit-query";
    case LimitClassification::kAlreadyMinimal: return "already-minimal";
    case LimitClassification::kUnsupportedShape: return "unsupported-shape";
    case LimitClassification::kNoFullyMatching: return "no-fully-matching";
    case LimitClassification::kPrunedToZero: return "pruned-to-0";
    case LimitClassification::kPrunedToOne: return "pruned-to-1";
    case LimitClassification::kPrunedToMany: return "pruned-to->1";
  }
  return "?";
}

namespace {

/// Where a column traced back to, walking from an operator down to a scan.
struct ColumnTrace {
  const PlanNode* scan = nullptr;
  std::string column;                        ///< Name at the scan's table.
  bool via_aggregate = false;                ///< Figure 7d.
  const PlanNode* agg_node = nullptr;
  const PlanNode* build_join_node = nullptr; ///< Figure 7c (build-outer join).
};

/// Per-query table snapshot: every table name the plan references is
/// resolved against the (shared, mutable) catalog exactly once, before
/// compilation; every later compile step — plan analysis included — reads
/// the snapshot. A concurrent Catalog::ReplaceTable/DropTable therefore can
/// never hand one query two versions of a table, or a mid-compile nullptr.
using TableSnapshot = std::map<std::string, std::shared_ptr<Table>>;

std::shared_ptr<Table> FindTable(const TableSnapshot& tables,
                                 const std::string& name) {
  auto it = tables.find(name);
  return it == tables.end() ? nullptr : it->second;
}

/// True when `expr` is more than `limit` nodes deep (a leaf is 1 deep).
/// Recurses at most limit + 1 frames, whatever the expression's depth.
bool ExprDeeperThan(const Expr& expr, size_t limit) {
  if (limit == 0) return true;
  for (const ExprPtr& child : expr.children()) {
    if (child && ExprDeeperThan(*child, limit - 1)) return true;
  }
  return false;
}

/// The one walk over a plan before it compiles. A plan must be a tree:
/// compilation keys its per-scan state by node, so a node reached twice
/// (shared by two parents, or its own descendant) is refused, as is a node
/// missing an input (a unary node without `child`, a join without `left`
/// or `right`). So is an expression deeper than Engine::kMaxExprDepth:
/// binding, analysis and evaluation recurse once per level. So is a
/// negative LIMIT or top-k count or offset. Unless `out` is null (an
/// injected snapshot), the walk also snapshots every table a scan names;
/// missing tables are left out and the scan compile reports NotFound.
Status WalkPlan(const Catalog& catalog, const PlanPtr& plan,
                std::set<const PlanNode*>* seen, TableSnapshot* out) {
  if (!plan) return Status::OK();
  if (!seen->insert(plan.get()).second) {
    return Status::InvalidArgument(
        "plan node reached twice: a plan must be a tree");
  }
  const auto too_deep = [](const ExprPtr& e) {
    return e != nullptr && ExprDeeperThan(*e, Engine::kMaxExprDepth);
  };
  if (too_deep(plan->predicate) ||
      std::any_of(plan->exprs.begin(), plan->exprs.end(), too_deep)) {
    return Status::InvalidArgument(
        "expression deeper than " + std::to_string(Engine::kMaxExprDepth) +
        " levels");
  }
  if (plan->limit_k < 0 || plan->limit_offset < 0) {
    return Status::InvalidArgument("negative LIMIT count or offset");
  }
  const bool is_join = plan->kind == PlanNode::Kind::kJoin;
  if (plan->kind != PlanNode::Kind::kScan &&
      (is_join ? !plan->left || !plan->right : !plan->child)) {
    return Status::InvalidArgument(
        is_join ? "join plan node is missing its left or right input"
                : "plan node is missing its child");
  }
  if (out != nullptr && plan->kind == PlanNode::Kind::kScan &&
      out->find(plan->table) == out->end()) {
    auto table = catalog.GetTable(plan->table);
    if (table) (*out)[plan->table] = std::move(table);
  }
  for (const PlanPtr* input : {&plan->child, &plan->left, &plan->right}) {
    Status s = WalkPlan(catalog, *input, seen, out);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

/// Per-query compilation state: scan bookkeeping, pending runtime-pruning
/// attachments discovered by plan analysis, and operator back-pointers.
struct Engine::CompileContext {
  struct ScanInfo {
    ScanSource* source = nullptr;
    TableScanOp* scan = nullptr;  ///< Null for a gathered (sharded) scan.
    std::shared_ptr<Table> table;
    FilterPruneResult filter_result;
    /// What this query saw of the table; a predicate-cache entry written
    /// from the run claims exactly this coverage.
    PredicateCache::Coverage coverage;
  };

  /// A predicate-cache lookup on behalf of one scan: its fingerprint and,
  /// on a hit, the entry's scan set (cached plus appended partitions).
  struct CacheProbe {
    std::string fingerprint;
    std::optional<std::vector<PartitionId>> partitions;
    /// Made by a TopK for the scan its order column traces to (a top-k
    /// entry); otherwise the scan's own entry.
    bool topk = false;
    /// The serving entry's row sum: kAllRows unless a k-sufficient entry
    /// served the hit.
    int64_t sufficient_rows = PredicateCache::kAllRows;

    bool limit_hit() const {
      return partitions.has_value() &&
             sufficient_rows != PredicateCache::kAllRows;
    }
    /// The kind of entry that served a hit, for traces and EXPLAIN ANALYZE.
    std::string EntryKind() const {
      if (topk) return "topk";
      if (!limit_hit()) return "scan";
      return "limit(rows=" + std::to_string(sufficient_rows) + ")";
    }
  };

  struct PendingTopK {
    const PlanNode* scan_node = nullptr;
    const PlanNode* build_join_node = nullptr;  // wrap this join's build input
    const PlanNode* agg_node = nullptr;
    std::string scan_column;
    TopKPruner* pruner = nullptr;
    int64_t k = 0;
    bool descending = true;
  };

  QueryResult* result = nullptr;
  /// Per-call options (never null during Compile/Execute).
  const ExecuteOptions* opts = nullptr;
  /// Sharded execution only: the coordinator's seam, and the gather source
  /// the plan's scan compiled to.
  ShardedLeaf* leaf = nullptr;
  GatherSourceOp* gather = nullptr;
  /// The query's catalog snapshot (see TableSnapshot above).
  TableSnapshot tables;
  /// Per-node state is sound because the plan is a tree (see WalkPlan).
  std::map<const PlanNode*, ScanInfo> scans;
  std::map<const PlanNode*, HashAggregateOp*> agg_ops;
  std::vector<std::unique_ptr<TopKPruner>> pruners;
  std::vector<PendingTopK> pending_topk;
  /// Top-k entry lookups, keyed by the scan they restrict. Made before the
  /// TopK's child compiles, so the scan applies a hit before filter pruning.
  std::map<const PlanNode*, CacheProbe> topk_cache_probes;
  /// The qualifying rows a LIMIT over a scan/project chain needs of its
  /// scan (offset + k), keyed by the scan and set before the LIMIT's child
  /// compiles: the scan's lookup then accepts a k-sufficient entry, and its
  /// run may write one. Other scans need every qualifying row.
  std::map<const PlanNode*, int64_t> limit_needs;
  /// Scans a join prunes at Open with its build-side summary (§6), marked
  /// before the join's children compile. A summary that prunes anything
  /// refuses their cache write, so they record nothing.
  std::set<const PlanNode*> join_probe_scans;
  /// Traced queries only: the profile the compiled operators meter into
  /// (one ProfileNode per operator) and the operators that got one — the
  /// engine hands them the trace pointer once the execute span exists.
  QueryProfile* profile = nullptr;
  std::vector<Operator*> profiled_ops;
  /// The open "compile" span id (traced queries; 0 untraced).
  uint32_t compile_span = 0;
  bool track_source = false;
  /// True once this compile owns a predicate-cache population ticket.
  /// Later cache-eligible scans in the same plan then use the
  /// non-blocking lookup: a compile may wait on a fingerprint only while
  /// holding no ticket, so two queries can never hold-and-wait on each
  /// other's populations (ABBA deadlock).
  bool cache_populate_held = false;
  /// Actions deferred to after a successful run (predicate-cache
  /// population). A failed query drops them with the context, which
  /// abandons any coalescing ticket they hold.
  std::vector<std::function<void()>> post_run_hooks;

  /// The query's PruningStats: the sum of every scan's ledger.
  PruningStats SumLedgers() const {
    PruningStats sum;
    for (const auto& [node, info] : scans) sum.Merge(info.source->ledger());
    return sum;
  }

  /// Traced queries: gives `op` its profile node, linked over its inputs'
  /// nodes, and lists it for the trace hand-off. No-op untraced.
  void Profile(Operator* op, std::string name, std::string detail,
               std::initializer_list<ProfileNode*> inputs = {}) {
    if (profile == nullptr) return;
    ProfileNode* node = profile->NewNode(std::move(name), std::move(detail));
    for (ProfileNode* input : inputs) {
      if (input != nullptr) node->children.push_back(input);
    }
    op->set_profile(node);
    profiled_ops.push_back(op);
  }

  PendingTopK* FindPendingForScan(const PlanNode* scan_node) {
    for (auto& p : pending_topk) {
      if (p.scan_node == scan_node) return &p;
    }
    return nullptr;
  }
  PendingTopK* FindPendingForJoinBuild(const PlanNode* join_node) {
    for (auto& p : pending_topk) {
      if (p.build_join_node == join_node) return &p;
    }
    return nullptr;
  }
};

namespace {

/// Does the subtree's output contain a column named `name`?
bool PlanOutputsColumn(const TableSnapshot& tables, const PlanPtr& plan,
                       const std::string& name) {
  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      auto table = FindTable(tables, plan->table);
      return table && table->schema().FindColumn(name).has_value();
    }
    case PlanNode::Kind::kProject:
      return std::find(plan->names.begin(), plan->names.end(), name) !=
             plan->names.end();
    case PlanNode::Kind::kJoin:
      return PlanOutputsColumn(tables, plan->left, name) ||
             PlanOutputsColumn(tables, plan->right, name);
    case PlanNode::Kind::kAggregate: {
      if (std::find(plan->group_columns.begin(), plan->group_columns.end(),
                    name) != plan->group_columns.end()) {
        return true;
      }
      for (const auto& agg : plan->aggregates) {
        if (agg.output_name == name) return true;
      }
      return false;
    }
    default:
      return PlanOutputsColumn(tables, plan->child, name);
  }
}

/// Traces `column` from the top of `plan` down to a producing scan,
/// validating the Figure 7 / §5.2 legality rules along the way. Returns an
/// empty trace (scan == nullptr) when the shape is unsupported.
ColumnTrace TraceColumnToScan(const TableSnapshot& tables, const PlanPtr& plan,
                              const std::string& column) {
  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      auto table = FindTable(tables, plan->table);
      if (table && table->schema().FindColumn(column).has_value()) {
        ColumnTrace t;
        t.scan = plan.get();
        t.column = column;
        return t;
      }
      return {};
    }
    case PlanNode::Kind::kProject: {
      auto it = std::find(plan->names.begin(), plan->names.end(), column);
      if (it == plan->names.end()) return {};
      size_t idx = static_cast<size_t>(it - plan->names.begin());
      if (plan->exprs[idx]->kind() != ExprKind::kColumnRef) return {};
      const auto& ref = static_cast<const ColumnRefExpr&>(*plan->exprs[idx]);
      return TraceColumnToScan(tables, plan->child, ref.name());
    }
    case PlanNode::Kind::kSort:
      return TraceColumnToScan(tables, plan->child, column);
    case PlanNode::Kind::kLimit:
    case PlanNode::Kind::kTopK:
      // They drop rows, so no Figure 7 shape reaches through them: a scan
      // below a LIMIT or a TopK must deliver the rows that operator picks,
      // which a boundary or a summary from above knows nothing of.
      return {};
    case PlanNode::Kind::kJoin: {
      if (PlanOutputsColumn(tables, plan->left, column)) {
        // Probe side: boundary-based skipping is safe for any join kind —
        // rows below the boundary cannot enter the heap even if they
        // survive the join (Figure 7b).
        return TraceColumnToScan(tables, plan->left, column);
      }
      if (PlanOutputsColumn(tables, plan->right, column)) {
        // Build side: only legal when the build side is preserved by the
        // join, where the TopK can be replicated below it (Figure 7c).
        if (plan->join_kind != JoinKind::kBuildOuter) return {};
        ColumnTrace t = TraceColumnToScan(tables, plan->right, column);
        if (t.scan != nullptr && t.build_join_node == nullptr) {
          t.build_join_node = plan.get();
        }
        return t;
      }
      return {};
    }
    case PlanNode::Kind::kAggregate: {
      // Legal only when the order column is one of the GROUP BY keys
      // (§5.2, Figure 7d) — ordering by an aggregate output is not.
      if (std::find(plan->group_columns.begin(), plan->group_columns.end(),
                    column) == plan->group_columns.end()) {
        return {};
      }
      ColumnTrace t = TraceColumnToScan(tables, plan->child, column);
      if (t.scan != nullptr) {
        if (t.via_aggregate) return {};  // nested aggregates unsupported
        t.via_aggregate = true;
        t.agg_node = plan.get();
      }
      return t;
    }
  }
  return {};
}

/// §4.3: can the LIMIT be pushed down to a scan? Row-count-reducing
/// operators block the pushdown, except the build side of a build-preserving
/// outer join. Scans' own predicates are fine: fully-matching partitions
/// account for them.
const PlanNode* TraceLimitTarget(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanNode::Kind::kScan:
      return plan.get();
    case PlanNode::Kind::kProject:
      return TraceLimitTarget(plan->child);
    case PlanNode::Kind::kJoin:
      if (plan->join_kind == JoinKind::kBuildOuter) {
        return TraceLimitTarget(plan->right);
      }
      return nullptr;
    default:
      return nullptr;
  }
}

LimitClassification MapOutcome(LimitPruneOutcome outcome) {
  switch (outcome) {
    case LimitPruneOutcome::kAlreadyMinimal:
      return LimitClassification::kAlreadyMinimal;
    case LimitPruneOutcome::kNoFullyMatching:
      return LimitClassification::kNoFullyMatching;
    case LimitPruneOutcome::kPrunedToZero:
      return LimitClassification::kPrunedToZero;
    case LimitPruneOutcome::kPrunedToOne:
      return LimitClassification::kPrunedToOne;
    case LimitPruneOutcome::kPrunedToMany:
      return LimitClassification::kPrunedToMany;
  }
  return LimitClassification::kUnsupportedShape;
}

/// True when the subtree is a pure scan/project chain (provenance survives
/// to the TopK operator, enabling the predicate cache).
bool IsScanProjectChain(const PlanPtr& plan) {
  if (plan->kind == PlanNode::Kind::kScan) return true;
  if (plan->kind == PlanNode::Kind::kProject) {
    return IsScanProjectChain(plan->child);
  }
  return false;
}

}  // namespace

Engine::Engine(Catalog* catalog, EngineConfig config)
    : catalog_(catalog), config_(std::move(config)) {}

Engine::~Engine() = default;

Result<OperatorPtr> Engine::Compile(const PlanPtr& plan, CompileContext* ctx) {
  switch (plan->kind) {
    case PlanNode::Kind::kScan: {
      auto table = FindTable(ctx->tables, plan->table);
      if (!table) return Status::NotFound("no table named " + plan->table);
      if (plan->predicate) {
        Status s = BindExpr(plan->predicate, table->schema());
        if (!s.ok()) return s;
      }
      ScanSet full = table->FullScanSet();
      const auto coverage = PredicateCache::Coverage::Of(*table);

      // Set by a LIMIT above this scan before it compiled its child.
      int64_t need = PredicateCache::kAllRows;
      auto limit_need = ctx->limit_needs.find(plan.get());
      if (limit_need != ctx->limit_needs.end()) need = limit_need->second;
      // §8.2 predicate cache, ahead of every pruning pass: a hit narrows the
      // candidates to the partitions the entry proved can matter (plus any
      // appended since), so filter pruning only looks at those. The
      // excluded partitions are credited to pruned_by_cache.
      CompileContext::CacheProbe probe;
      if (config_.predicate_cache != nullptr && ctx->leaf == nullptr) {
        auto topk_probe = ctx->topk_cache_probes.find(plan.get());
        if (topk_probe != ctx->topk_cache_probes.end()) {
          // Made by the TopK above this scan (a top-k entry).
          probe = std::move(topk_probe->second);
        } else if (plan->predicate) {
          probe.fingerprint = plan->Fingerprint();
          probe.partitions = config_.predicate_cache->Lookup(
              probe.fingerprint, *table, need, &probe.sufficient_rows);
        }
      }
      const ScanSet candidates = probe.partitions.has_value()
                                     ? ScanSet(*probe.partitions)
                                     : full;
      if (probe.partitions.has_value()) {
        ctx->result->predicate_cache_hit = true;
        if (probe.limit_hit()) ctx->result->predicate_cache_limit_hit = true;
        if (ctx->opts->trace != nullptr) {
          ctx->opts->trace->AnnotateStr(ctx->compile_span, "cache_entry",
                                        probe.EntryKind());
        }
      }

      FilterPruneResult filter_result;
      if (config_.enable_filter_pruning) {
        FilterPruner pruner(plan->predicate);
        if (ctx->leaf != nullptr && plan->predicate) {
          // Cross-shard pruning first: one merged-zone-map probe per shard.
          // Merged stats are monotone (they admit everything any member
          // admits), so a probe-excluded shard's partitions are exactly
          // partitions the per-partition pass would have pruned anyway —
          // removing them up front changes no counter, it only spares the
          // metadata work and, crucially, the shard contact.
          filter_result = pruner.Prune(
              *table, ctx->leaf->Probe(plan->predicate, candidates));
          filter_result.pruned += static_cast<int64_t>(candidates.size()) -
                                  filter_result.input_partitions;
          filter_result.input_partitions =
              static_cast<int64_t>(candidates.size());
        } else {
          filter_result = pruner.Prune(*table, candidates);
        }
      } else {
        filter_result.scan_set = candidates;
        filter_result.input_partitions =
            static_cast<int64_t>(candidates.size());
        if (!plan->predicate) {
          for (PartitionId pid : candidates) {
            filter_result.fully_matching.push_back(pid);
            filter_result.fully_matching_rows +=
                table->partition_metadata(pid).row_count();
          }
        }
      }

      // A sharded scan gathers the shards' answers instead of loading.
      std::unique_ptr<ScanSource> source;
      TableScanOp* scan = nullptr;
      if (ctx->leaf != nullptr) {
        auto gather =
            std::make_unique<GatherSourceOp>(table, filter_result.scan_set);
        ctx->gather = gather.get();
        source = std::move(gather);
      } else {
        auto op = std::make_unique<TableScanOp>(table, filter_result.scan_set,
                                                plan->predicate);
        if (ctx->track_source) op->set_track_source(true);
        scan = op.get();
        source = std::move(op);
      }
      // The scan's compile-time pruning, each partition counted once: the
      // cache excluded it, or filter pruning (the shard probe included)
      // did.
      PruningStats* ledger = source->mutable_ledger();
      ledger->total_partitions = static_cast<int64_t>(full.size());
      ledger->pruned_by_cache =
          static_cast<int64_t>(full.size() - candidates.size());
      ledger->pruned_by_filter = filter_result.pruned;
      // A runtime top-k pruner (attached under every TopK that traced its
      // order column here, so under every top-k entry lookup too) skips
      // partitions, and a join's probe side loses them to the build
      // summary: such a scan records nothing, though the lookup above may
      // still hit an entry another query wrote.
      CompileContext::PendingTopK* pending =
          ctx->FindPendingForScan(plan.get());
      if (scan != nullptr && config_.predicate_cache != nullptr &&
          plan->predicate && pending == nullptr &&
          ctx->join_probe_scans.count(plan.get()) == 0) {
        // Recorded over the filter-pruned scan set. A run that delivered all
        // of it writes a scan entry (see QualifyingPartitions); a LIMIT run
        // whose delivered partitions held its need writes a k-sufficient
        // one, and so does any run under a k-sufficient restriction.
        scan->RecordQualifying();
        ctx->post_run_hooks.push_back(
            [this, scan, table, coverage, need, restricted = probe.limit_hit(),
             fingerprint = probe.fingerprint,
             columns = ReferencedColumns(plan->predicate)]() {
              std::optional<TableScanOp::QualifyingRecord> record =
                  scan->QualifyingPartitions();
              if (!record.has_value()) return;
              int64_t sufficient_rows = PredicateCache::kAllRows;
              if (!record->complete || restricted) {
                // Without a LIMIT the need is kAllRows: nothing to write.
                if (record->rows < need) return;
                sufficient_rows = record->rows;
              }
              // Injection site: the population write-back fails after a
              // successful query (cache node fault).
              if (SNOW_FAILPOINT("predcache.populate")) return;
              config_.predicate_cache->Insert(
                  fingerprint, *table,
                  PredicateCache::Population{coverage, "", columns,
                                             std::move(record->partitions),
                                             sufficient_rows});
            });
      }
      ctx->Profile(source.get(), ctx->leaf != nullptr ? "Gather" : "Scan",
                   probe.partitions.has_value()
                       ? plan->table + " [cache " + probe.EntryKind() + "]"
                       : plan->table);
      if (pending != nullptr) {
        source->AttachTopKPruner(pending->pruner);
        ScanSet prepared = pending->pruner->Prepare(
            *table, source->scan_set(), filter_result.fully_matching);
        source->ReplaceScanSet(std::move(prepared));
      }
      ctx->scans[plan.get()] = CompileContext::ScanInfo{
          source.get(), scan, table, std::move(filter_result), coverage};
      return OperatorPtr(std::move(source));
    }

    case PlanNode::Kind::kProject: {
      auto child = Compile(plan->child, ctx);
      if (!child.ok()) return child.status();
      OperatorPtr input = std::move(child).value();
      for (const auto& e : plan->exprs) {
        Status s = BindExpr(e, input->output_schema());
        if (!s.ok()) return s;
      }
      ProfileNode* child_node = input->profile();
      auto project = std::make_unique<ProjectOp>(std::move(input), plan->exprs,
                                                 plan->names);
      ctx->Profile(project.get(), "Project",
                   std::to_string(plan->exprs.size()) + " exprs", {child_node});
      return OperatorPtr(std::move(project));
    }

    case PlanNode::Kind::kLimit: {
      const PlanNode* target = TraceLimitTarget(plan->child);
      // §8.2 predicate cache: LIMIT k accepts any k qualifying rows, so over
      // a scan/project chain the scan needs only offset + k of them — a
      // k-sufficient entry holding that many may serve it.
      if (target != nullptr && config_.predicate_cache != nullptr &&
          ctx->leaf == nullptr && IsScanProjectChain(plan->child)) {
        ctx->limit_needs[target] = plan->limit_k + plan->limit_offset;
      }
      auto child = Compile(plan->child, ctx);
      if (!child.ok()) return child.status();
      OperatorPtr input = std::move(child).value();
      if (config_.enable_limit_pruning) {
        if (target == nullptr) {
          ctx->result->limit_class = LimitClassification::kUnsupportedShape;
        } else {
          auto& info = ctx->scans.at(target);
          // Pruning must cover offset + k rows (Figure 6's convention).
          LimitPruneResult res = LimitPruner::Prune(
              *info.table, info.filter_result,
              plan->limit_k + plan->limit_offset);
          info.source->ReplaceScanSet(res.scan_set);
          // LIMIT pruning acts on the target scan's partitions: its ledger.
          info.source->mutable_ledger()->pruned_by_limit += res.pruned;
          ctx->result->limit_class = MapOutcome(res.outcome);
        }
      }
      ProfileNode* child_node = input->profile();
      auto limit = std::make_unique<LimitOp>(std::move(input), plan->limit_k,
                                             plan->limit_offset);
      ctx->Profile(limit.get(), "Limit",
                   "k=" + std::to_string(plan->limit_k) +
                       " offset=" + std::to_string(plan->limit_offset),
                   {child_node});
      return OperatorPtr(std::move(limit));
    }

    case PlanNode::Kind::kTopK: {
      // Plan analysis must run before the child compiles so the scan (and
      // join / aggregate) pick up their pruning attachments.
      ColumnTrace trace;
      TopKPruner* pruner = nullptr;
      if (config_.enable_topk_pruning) {
        trace = TraceColumnToScan(ctx->tables, plan->child, plan->order_column);
        if (trace.scan != nullptr) {
          TopKPrunerConfig pcfg;
          pcfg.k = plan->limit_k;
          pcfg.descending = plan->descending;
          pcfg.order_strategy = config_.topk_order_strategy;
          pcfg.boundary_init = config_.topk_boundary_init;
          pcfg.inclusive_updates = !trace.via_aggregate;
          // Snapshot lookup can't fail: a non-null trace.scan means the
          // trace already found this table in the snapshot.
          auto table = FindTable(ctx->tables, trace.scan->table);
          auto col = table->schema().FindColumn(trace.column);
          ctx->pruners.push_back(
              std::make_unique<TopKPruner>(pcfg, col.value()));
          pruner = ctx->pruners.back().get();
          CompileContext::PendingTopK pending;
          pending.scan_node = trace.scan;
          pending.build_join_node = trace.build_join_node;
          pending.agg_node = trace.agg_node;
          pending.scan_column = trace.column;
          pending.pruner = pruner;
          pending.k = plan->limit_k;
          pending.descending = plan->descending;
          ctx->pending_topk.push_back(pending);
          ctx->result->topk_pruning_attached = true;
        }
      }

      // §8.2 predicate cache (top-k entry): only for scan/project chains
      // (provenance). Looked up before the child compiles, so the scan
      // applies a hit ahead of filter pruning.
      const bool cache_eligible = config_.predicate_cache != nullptr &&
                                  ctx->leaf == nullptr &&
                                  trace.scan != nullptr &&
                                  trace.build_join_node == nullptr &&
                                  trace.agg_node == nullptr &&
                                  IsScanProjectChain(plan->child);
      std::string cache_fingerprint;
      std::shared_ptr<PredicateCache::PopulateTicket> cache_ticket;
      if (cache_eligible) {
        ctx->track_source = true;
        cache_fingerprint = plan->Fingerprint();
        const Table& table = *FindTable(ctx->tables, trace.scan->table);
        // Coalesced lookup: concurrent identical queries block here while
        // the first one computes and publishes, instead of all recomputing.
        // The ticket is held by the post-run hook so the population is
        // released (publish via Insert, or abandon on any error path) no
        // matter how execution ends. Only the first cache-eligible TopK of
        // a plan may coalesce (own a ticket or wait); any further one
        // falls back to the non-blocking lookup, so a compile never waits
        // while holding a ticket — see CompileContext::cache_populate_held.
        std::optional<std::vector<PartitionId>> cached;
        if (!ctx->cache_populate_held) {
          cache_ticket = std::make_shared<PredicateCache::PopulateTicket>();
          cached = config_.predicate_cache->LookupOrPopulate(
              cache_fingerprint, table, cache_ticket.get());
          if (cache_ticket->owns()) ctx->cache_populate_held = true;
        } else {
          cached = config_.predicate_cache->Lookup(cache_fingerprint, table);
        }
        ctx->topk_cache_probes[trace.scan] = CompileContext::CacheProbe{
            cache_fingerprint, std::move(cached), /*topk=*/true};
      }

      auto child = Compile(plan->child, ctx);
      if (!child.ok()) return child.status();
      OperatorPtr input = std::move(child).value();

      auto idx = input->output_schema().FindColumn(plan->order_column);
      if (!idx.has_value()) {
        return Status::NotFound("no order column " + plan->order_column);
      }
      if (plan->limit_k == 0 && trace.scan != nullptr) {
        // ORDER BY ... LIMIT 0 keeps no row, so the traced scan loads
        // nothing: its whole scan set is top-k pruned, as a LIMIT 0's is
        // limit pruned.
        ScanSource* source = ctx->scans.at(trace.scan).source;
        source->mutable_ledger()->pruned_by_topk +=
            static_cast<int64_t>(source->scan_set().size());
        source->ReplaceScanSet(ScanSet());
      }
      // The boundary publisher: the outer TopK for plain/probe-side shapes;
      // the replicated build-side TopK or the aggregate for the others.
      TopKPruner* publisher = pruner;
      if (trace.build_join_node != nullptr) publisher = nullptr;
      if (trace.agg_node != nullptr) {
        publisher = nullptr;
        auto agg_it = ctx->agg_ops.find(trace.agg_node);
        if (agg_it != ctx->agg_ops.end()) {
          const auto& gcols = trace.agg_node->group_columns;
          auto git = std::find(gcols.begin(), gcols.end(), plan->order_column);
          if (git != gcols.end()) {
            agg_it->second->EnableGroupLimit(
                static_cast<size_t>(git - gcols.begin()), plan->descending,
                plan->limit_k, pruner);
          }
        }
      }
      ProfileNode* child_node = input->profile();
      auto topk = std::make_unique<TopKOp>(std::move(input), idx.value(),
                                           plan->descending, plan->limit_k,
                                           publisher);
      ctx->Profile(topk.get(), "TopK",
                   plan->order_column + " k=" + std::to_string(plan->limit_k) +
                       (plan->descending ? " desc" : " asc"),
                   {child_node});
      if (cache_eligible) {
        // Record contributions post-execution; stash what we need. Insert
        // publishes the coalesced population; if the hook is destroyed
        // without running, the captured ticket abandons it instead.
        TopKOp* topk_ptr = topk.get();
        auto& info = ctx->scans.at(trace.scan);
        ctx->post_run_hooks.push_back(
            [this, topk_ptr, cache_fingerprint, cache_ticket,
             table = info.table, coverage = info.coverage,
             column = trace.column,
             columns = ReferencedColumns(trace.scan->predicate)]() {
              // Injection site: the population write-back fails after a
              // successful query (cache node fault). Returning before Insert
              // leaves the captured ticket to die with the hook —
              // abandonment wakes coalesced waiters, who fall back to
              // populating themselves.
              if (SNOW_FAILPOINT("predcache.populate")) return;
              config_.predicate_cache->Insert(
                  cache_fingerprint, *table,
                  PredicateCache::Population{
                      coverage, column, columns,
                      topk_ptr->contributing_partitions()});
            });
      }
      return OperatorPtr(std::move(topk));
    }

    case PlanNode::Kind::kSort: {
      auto child = Compile(plan->child, ctx);
      if (!child.ok()) return child.status();
      OperatorPtr input = std::move(child).value();
      auto idx = input->output_schema().FindColumn(plan->order_column);
      if (!idx.has_value()) {
        return Status::NotFound("no order column " + plan->order_column);
      }
      ProfileNode* child_node = input->profile();
      auto sort = std::make_unique<SortOp>(std::move(input), idx.value(),
                                           plan->descending);
      ctx->Profile(sort.get(), "Sort",
                   plan->order_column + (plan->descending ? " desc" : " asc"),
                   {child_node});
      return OperatorPtr(std::move(sort));
    }

    case PlanNode::Kind::kJoin: {
      // §6: the probe-side scan the build summary will prune, traced before
      // the children compile so that scan knows it (see join_probe_scans).
      // Not for probe-preserved (LEFT OUTER) joins: their unmatched probe
      // rows are emitted null-padded, so a probe partition that cannot
      // match the build side still contributes rows and must not be pruned.
      ColumnTrace key_trace;
      if (config_.enable_join_pruning &&
          plan->join_kind != JoinKind::kProbeOuter) {
        key_trace = TraceColumnToScan(ctx->tables, plan->left, plan->left_key);
        if (key_trace.agg_node != nullptr ||
            key_trace.build_join_node != nullptr) {
          key_trace = ColumnTrace();
        }
        if (key_trace.scan != nullptr) {
          ctx->join_probe_scans.insert(key_trace.scan);
        }
      }
      auto left = Compile(plan->left, ctx);
      if (!left.ok()) return left.status();
      OperatorPtr probe = std::move(left).value();
      auto right = Compile(plan->right, ctx);
      if (!right.ok()) return right.status();
      OperatorPtr build = std::move(right).value();

      // Figure 7c: replicate the TopK onto the preserved build side.
      if (auto* pending = ctx->FindPendingForJoinBuild(plan.get())) {
        auto idx = build->output_schema().FindColumn(pending->scan_column);
        if (idx.has_value()) {
          ProfileNode* build_node = build->profile();
          auto replicated = std::make_unique<TopKOp>(
              std::move(build), idx.value(), pending->descending, pending->k,
              pending->pruner);
          ctx->Profile(replicated.get(), "TopK",
                       pending->scan_column + " k=" +
                           std::to_string(pending->k) + " (replicated)",
                       {build_node});
          build = std::move(replicated);
        }
      }

      auto pidx = probe->output_schema().FindColumn(plan->left_key);
      auto bidx = build->output_schema().FindColumn(plan->right_key);
      if (!pidx.has_value() || !bidx.has_value()) {
        return Status::NotFound("join key not found: " + plan->left_key + "/" +
                                plan->right_key);
      }
      ProfileNode* probe_node = probe->profile();
      ProfileNode* build_child_node = build->profile();
      auto join = std::make_unique<HashJoinOp>(std::move(probe),
                                               std::move(build), pidx.value(),
                                               bidx.value(), plan->join_kind,
                                               config_.enable_join_pruning);
      ctx->Profile(join.get(), "HashJoin",
                   plan->left_key + "=" + plan->right_key,
                   {probe_node, build_child_node});
      // §6: wire the probe-side scan for partition-level summary pruning.
      if (key_trace.scan != nullptr) {
        auto it = ctx->scans.find(key_trace.scan);
        if (it != ctx->scans.end() && it->second.scan != nullptr) {
          auto col = it->second.table->schema().FindColumn(key_trace.column);
          if (col.has_value()) {
            join->AttachProbeScan(it->second.scan, col.value());
          }
        }
      }
      return OperatorPtr(std::move(join));
    }

    case PlanNode::Kind::kAggregate: {
      auto child = Compile(plan->child, ctx);
      if (!child.ok()) return child.status();
      OperatorPtr input = std::move(child).value();
      std::vector<size_t> group_cols;
      for (const auto& name : plan->group_columns) {
        auto idx = input->output_schema().FindColumn(name);
        if (!idx.has_value()) return Status::NotFound("no column " + name);
        group_cols.push_back(idx.value());
      }
      std::vector<AggSpec> aggs;
      for (const auto& spec : plan->aggregates) {
        AggSpec a;
        a.func = spec.func;
        a.name = spec.output_name;
        if (spec.func != AggFunc::kCount) {
          auto idx = input->output_schema().FindColumn(spec.column);
          if (!idx.has_value()) {
            return Status::NotFound("no column " + spec.column);
          }
          a.column = idx.value();
        }
        aggs.push_back(std::move(a));
      }
      ProfileNode* child_node = input->profile();
      auto agg = std::make_unique<HashAggregateOp>(
          std::move(input), std::move(group_cols), std::move(aggs));
      ctx->agg_ops[plan.get()] = agg.get();
      ctx->Profile(agg.get(), "HashAggregate",
                   "groups=" + std::to_string(plan->group_columns.size()) +
                       " aggs=" + std::to_string(plan->aggregates.size()),
                   {child_node});
      return OperatorPtr(std::move(agg));
    }
  }
  return Status::Internal("unknown plan node");
}

Result<QueryResult> Engine::Execute(const PlanPtr& plan,
                                    const std::atomic<bool>* cancel) {
  ExecuteOptions opts;
  opts.cancel = cancel;
  return Execute(plan, opts);
}

Result<QueryResult> Engine::Execute(const PlanPtr& plan,
                                    const ExecuteOptions& opts) {
  return Execute(plan, opts, nullptr);
}

Result<QueryResult> Engine::Execute(const PlanPtr& plan,
                                    const ExecuteOptions& opts,
                                    ShardedLeaf* leaf) {
  if (!plan) return Status::InvalidArgument("null plan");
  if (DeadlinePassed(opts.deadline_ns)) {
    // Dead on arrival: don't spend compile work on a query whose caller has
    // already given up on the answer.
    return Status::DeadlineExceeded("deadline passed before execution");
  }
  const std::atomic<bool>* cancel = opts.cancel;
  QueryResult result;
  CompileContext ctx;
  ctx.result = &result;
  ctx.opts = &opts;
  ctx.leaf = leaf;

  // Snapshot every referenced table once: DML (ReplaceTable/DropTable) that
  // lands after this point does not affect this query. An injected snapshot
  // (the shard coordinator's) extends the same guarantee to its shard map.
  std::set<const PlanNode*> seen;
  Status walked = WalkPlan(*catalog_, plan, &seen,
                           opts.tables != nullptr ? nullptr : &ctx.tables);
  if (!walked.ok()) return walked;
  if (opts.tables != nullptr) ctx.tables = *opts.tables;

  // Traced execution: the whole call becomes one "query" span with compile
  // and execute children, and the compiled operators meter themselves into
  // a QueryProfile. Untraced queries skip every site on a null test.
  ScopedSpan query_span(opts.trace, "query");
  std::shared_ptr<QueryProfile> profile;
  if (opts.trace != nullptr) {
    profile = std::make_shared<QueryProfile>();
    ctx.profile = profile.get();
  }
  const uint32_t compile_span =
      opts.trace != nullptr ? opts.trace->BeginSpan("compile", query_span.id())
                            : 0;
  ctx.compile_span = compile_span;

  auto compiled = Compile(plan, &ctx);
  if (opts.trace != nullptr) {
    // Compile-time pruning decisions, readable straight off the span.
    const PruningStats compiled_stats = ctx.SumLedgers();
    opts.trace->AnnotateInt(compile_span, "total_partitions",
                            compiled_stats.total_partitions);
    opts.trace->AnnotateInt(compile_span, "pruned_by_cache",
                            compiled_stats.pruned_by_cache);
    opts.trace->AnnotateInt(compile_span, "pruned_by_filter",
                            compiled_stats.pruned_by_filter);
    opts.trace->AnnotateInt(compile_span, "pruned_by_limit",
                            compiled_stats.pruned_by_limit);
    opts.trace->EndSpan(compile_span);
  }
  if (!compiled.ok()) return compiled.status();
  OperatorPtr root = std::move(compiled).value();

  // Partition-parallel execution (§2's "highly parallel execution layer"):
  // fan every scan's post-pruning scan set out across the worker pool. An
  // injected pool (service mode) is shared with other queries and its width
  // overrides num_threads; otherwise the engine lazily owns a private pool.
  // A one-worker fleet leaves the scans untouched — the serial path runs
  // bit-for-bit as before, with no pool or scheduler involved.
  const size_t num_threads =
      config_.exec.pool != nullptr ? config_.exec.pool->num_threads()
      : config_.exec.num_threads > 0
          ? static_cast<size_t>(config_.exec.num_threads)
          : ThreadPool::DefaultConcurrency();
  ThreadPool* pool = nullptr;
  size_t window = 0;
  if (num_threads > 1 || config_.exec.force_parallel) {
    pool = config_.exec.pool;
    if (pool == nullptr) {
      if (!pool_ || pool_->num_threads() != num_threads) {
        pool_ = std::make_unique<ThreadPool>(num_threads);
      }
      pool = pool_.get();
    }
    // The default window budgets against the executing pool's real width —
    // for a shared pool that is the service-wide worker fleet, not the
    // per-query thread knob.
    window = config_.exec.morsel_window > 0 ? config_.exec.morsel_window
                                            : pool->num_threads() * 4;
  }
  if (leaf != nullptr) {
    // A sharded query's slices are scanned on the same pool; its gather
    // replays their answers on this thread.
    Status scattered = leaf->Scatter(ctx.gather, pool, window, query_span.id());
    if (!scattered.ok()) return scattered;
  } else if (pool != nullptr) {
    // The operator reading a parallel scan checks at Open() whether it can
    // push its per-row work onto the scan's workers (an aggregate's fold, a
    // join build, a top-k filter, a sort run); a scan feeds at most one
    // such stage.
    for (auto& [node, info] : ctx.scans) {
      info.scan->EnableParallel(pool, window, config_.exec.morsel_min_rows);
    }
  }

  // Per-query cancellation and deadline: every scan polls both (serial and
  // parallel alike), so pipeline breakers draining a scan abort within one
  // partition/morsel instead of at operator boundaries, and a query past
  // its deadline frees its pool share within ~a morsel window. (A gathered
  // scan loads nothing; the root loop below polls both per batch.)
  for (auto& [node, info] : ctx.scans) {
    if (info.scan == nullptr) continue;
    info.scan->set_cancel_flag(cancel);
    info.scan->set_deadline_ns(opts.deadline_ns);
  }
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled before execution");
  }

  for (const auto& [node, info] : ctx.scans) {
    result.scan_set_bytes +=
        static_cast<int64_t>(info.source->scan_set().SerializedBytes());
  }

  // The execute span ("gather" for a sharded query) parents every
  // operator-recorded span: pipeline-breaker drains, join builds, and the
  // workers' morsel spans (merged at delivery). Handing the trace to the
  // operators must precede Open() — scans snapshot the pointer before their
  // schedulers start fanning out.
  ScopedSpan exec_span(opts.trace, leaf != nullptr ? "gather" : "execute",
                       query_span.id());
  if (opts.trace != nullptr) {
    for (Operator* op : ctx.profiled_ops) {
      op->set_trace(opts.trace, exec_span.id());
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  root->Open();
  Batch batch;
  while (root->Next(&batch)) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
    if (DeadlinePassed(opts.deadline_ns)) break;
    for (auto& row : batch.rows) result.rows.push_back(std::move(row));
  }
  root->Close();
  result.wall_ms = MsSince(t0);

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    // The operator tree tore down above (Close joins any in-flight
    // workers); partial output is discarded, tickets are abandoned.
    return Status::Cancelled("query cancelled");
  }

  // A scan that stopped on a load/dispatch fault reported end-of-scan to its
  // consumers; surface the fault instead of the truncated result. Checked
  // before the deadline so an injected (retryable) error is not masked by a
  // deadline that expired during teardown.
  for (const auto& [node, info] : ctx.scans) {
    if (info.scan != nullptr && !info.scan->error().ok()) {
      return info.scan->error();
    }
  }

  if (DeadlinePassed(opts.deadline_ns)) {
    return Status::DeadlineExceeded("deadline exceeded during execution");
  }

  for (auto& hook : ctx.post_run_hooks) hook();

  result.schema = root->output_schema();
  result.stats = ctx.SumLedgers();
  // Debug-build soundness audit: no pruning level may claim more partitions
  // than the query had (see PruningStats::DCheckInvariants).
  result.stats.DCheckInvariants();

  if (profile != nullptr) {
    profile->root = root->profile();
    profile->stage_tasks = opts.trace->stage_tasks();
    result.profile = profile;
    for (const auto& [node, info] : ctx.scans) {
      info.source->profile()->pruning = info.source->ledger();
    }
#if SNOW_DCHECK_IS_ON
    // Per-node attribution reconciles exactly when every source got exactly
    // one profile node of its own: the nodes then hold the very ledgers the
    // query's PruningStats sums.
    std::set<const ProfileNode*> source_nodes;
    for (const auto& [node, info] : ctx.scans) {
      source_nodes.insert(info.source->profile());
    }
    SNOW_DCHECK_EQ(source_nodes.size(), ctx.scans.size());
    const PruningStats sum = profile->SumPruning();
    SNOW_DCHECK_EQ(sum.total_partitions, result.stats.total_partitions);
    SNOW_DCHECK_EQ(sum.pruned_by_filter, result.stats.pruned_by_filter);
    SNOW_DCHECK_EQ(sum.pruned_by_limit, result.stats.pruned_by_limit);
    SNOW_DCHECK_EQ(sum.pruned_by_join, result.stats.pruned_by_join);
    SNOW_DCHECK_EQ(sum.pruned_by_topk, result.stats.pruned_by_topk);
    SNOW_DCHECK_EQ(sum.pruned_by_cache, result.stats.pruned_by_cache);
    SNOW_DCHECK_EQ(sum.scanned_partitions, result.stats.scanned_partitions);
    SNOW_DCHECK_EQ(sum.scanned_rows, result.stats.scanned_rows);
    SNOW_DCHECK_EQ(sum.speculative_loads, result.stats.speculative_loads);
    SNOW_DCHECK_EQ(sum.shards_total, result.stats.shards_total);
    SNOW_DCHECK_EQ(sum.shards_pruned, result.stats.shards_pruned);
#endif
  }
  return result;
}

}  // namespace snowprune
