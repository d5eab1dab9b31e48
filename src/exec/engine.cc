#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/check.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/trace.h"
#include "exec/ops.h"
#include "exec/profile.h"
#include "exec/parallel/thread_pool.h"
#include "exec/scan_op.h"
#include "exec/topk_op.h"
#include "expr/jit/compiler.h"

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

/// Missing tables are simply left out; the scan compile reports NotFound.
void CollectTables(const Catalog& catalog, const PlanPtr& plan,
                   TableSnapshot* out) {
  if (!plan) return;
  if (plan->kind == PlanNode::Kind::kScan &&
      out->find(plan->table) == out->end()) {
    auto table = catalog.GetTable(plan->table);
    if (table) (*out)[plan->table] = std::move(table);
  }
  CollectTables(catalog, plan->child, out);
  CollectTables(catalog, plan->left, out);
  CollectTables(catalog, plan->right, out);
}

/// Specialization-tier entry point shared by every compile site (eager scan
/// attach, gathered scans included, and cache-hit promotion): compile the
/// bound predicate to bytecode, stamp the table version it may run against,
/// and record the decision as a "compile.specialize" span under the query's
/// compile span (bytecode length, per-term fallback count, and the reject
/// reason as a jit::RejectReason code — 0 means compiled).
std::shared_ptr<const jit::CompiledPredicate> CompileSpecialized(
    const ExprPtr& predicate, const Schema& schema, uint64_t table_instance,
    Trace* trace, uint32_t parent_span) {
  const uint32_t span = trace != nullptr
                            ? trace->BeginSpan("compile.specialize", parent_span)
                            : 0;
  jit::CompileResult compiled = jit::CompilePredicate(predicate, schema);
  if (compiled.program != nullptr) {
    compiled.program->table_instance = table_instance;
  }
  if (trace != nullptr) {
    trace->AnnotateInt(span, "bytecode_len",
                       compiled.program != nullptr
                           ? static_cast<int64_t>(compiled.program->code.size())
                           : 0);
    trace->AnnotateInt(span, "fallback_terms", compiled.fallback_terms);
    trace->AnnotateInt(span, "reject_reason",
                       static_cast<int64_t>(compiled.reason));
    trace->EndSpan(span);
  }
  return std::move(compiled.program);
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

  PruningStats stats;
  QueryResult* result = nullptr;
  /// Per-call options (never null during Compile/Execute).
  const ExecuteOptions* opts = nullptr;
  /// Sharded execution only: the coordinator's seam, and the gather source
  /// the plan's scan compiled to.
  ShardedLeaf* leaf = nullptr;
  GatherSourceOp* gather = nullptr;
  /// The query's catalog snapshot (see TableSnapshot above).
  TableSnapshot tables;
  std::map<const PlanNode*, ScanInfo> scans;
  std::map<const PlanNode*, HashAggregateOp*> agg_ops;
  /// Operators eligible for pipeline-parallel stages (join build, top-k
  /// candidate filter, sorted runs), enabled after compile when the engine
  /// runs parallel and ExecConfig::parallel_pipeline is on.
  std::vector<HashJoinOp*> join_ops;
  std::vector<TopKOp*> topk_ops;
  std::vector<SortOp*> sort_ops;
  std::vector<std::unique_ptr<TopKPruner>> pruners;
  std::vector<std::unique_ptr<FilterPruner>> runtime_filter_pruners;
  std::vector<PendingTopK> pending_topk;
  /// Top-k entry lookups, keyed by the scan they restrict. Made before the
  /// TopK's child compiles, so the scan applies a hit before filter pruning.
  std::map<const PlanNode*, CacheProbe> topk_cache_probes;
  /// Traced queries only: the profile the compiled operators meter into
  /// (one ProfileNode per operator) and the operators that got one — the
  /// engine hands them the trace pointer once the execute span exists.
  QueryProfile* profile = nullptr;
  std::vector<Operator*> profiled_ops;
  /// The open "compile" span id (traced queries; 0 untraced) —
  /// "compile.specialize" spans nest under it.
  uint32_t compile_span = 0;
  bool track_source = false;
  /// True once this compile owns a predicate-cache population ticket.
  /// Later cache-eligible scans in the same plan then use the
  /// non-blocking lookup: a compile may wait on a fingerprint only while
  /// holding no ticket, so two queries can never hold-and-wait on each
  /// other's populations (ABBA deadlock).
  bool cache_populate_held = false;

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
    case PlanNode::Kind::kLimit:
    case PlanNode::Kind::kTopK:
    case PlanNode::Kind::kSort:
      return TraceColumnToScan(tables, plan->child, column);
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
      if (ctx->opts->scan_sets != nullptr) {
        auto it = ctx->opts->scan_sets->find(plan->table);
        if (it != ctx->opts->scan_sets->end()) {
          // Sharded sub-query: execute exactly the coordinator's slice. All
          // compile-time pruning already ran globally on the coordinator,
          // which also pre-bound the predicate against this snapshot's
          // schema — re-binding here would race with the other shards'
          // sub-queries sharing the same predicate tree. No stats: the
          // coordinator meters the gathered stream itself.
#if SNOW_DCHECK_IS_ON
          // Scatter-edge contract: an override scan set must be a subset of
          // this snapshot's partitions. The coordinator pruned against the
          // same Table objects this sub-query binds to, so any out-of-range
          // id means the shard map and snapshot went out of sync.
          for (PartitionId pid : it->second) {
            SNOW_DCHECK_LT(static_cast<size_t>(pid), table->num_partitions());
          }
#endif
          auto op = std::make_unique<TableScanOp>(table, it->second,
                                                  plan->predicate, nullptr);
          if (config_.exec.specialize && ctx->opts->compiled_filters != nullptr) {
            // The coordinator compiled once and shares the program with
            // every shard sub-query; a sub-query never compiles locally.
            auto cf = ctx->opts->compiled_filters->find(plan->table);
            if (cf != ctx->opts->compiled_filters->end() &&
                cf->second != nullptr &&
                cf->second->table_instance == table->instance_id()) {
              op->set_compiled_filter(cf->second);
            }
          }
          if (ctx->profile != nullptr) {
            // Rows/batches/time only: pruning already happened (and was
            // metered) on the coordinator, so this node claims none of it.
            op->set_profile(ctx->profile->NewNode("Scan", plan->table));
            ctx->profiled_ops.push_back(op.get());
          }
          ctx->scans[plan.get()] = CompileContext::ScanInfo{
              op.get(), op.get(), table, FilterPruneResult{},
              PredicateCache::Coverage::Of(*table)};
          return OperatorPtr(std::move(op));
        }
      }
      if (plan->predicate) {
        Status s = BindExpr(plan->predicate, table->schema());
        if (!s.ok()) return s;
      }
      ScanSet full = table->FullScanSet();
      ctx->stats.total_partitions += static_cast<int64_t>(full.size());
      const auto coverage = PredicateCache::Coverage::Of(*table);

      // §8.2 predicate cache, ahead of every pruning pass: a hit narrows the
      // candidates to the partitions the entry proved can matter (plus any
      // appended since), so filter pruning only looks at those. The
      // excluded partitions are credited to pruned_by_cache.
      CompileContext::CacheProbe probe;
      if (config_.predicate_cache != nullptr && ctx->leaf == nullptr) {
        auto topk_probe = ctx->topk_cache_probes.find(plan.get());
        if (topk_probe != ctx->topk_cache_probes.end()) {
          // Consumed by the TopK's own child, the first compile of this
          // node after the lookup; any later compile of a shared node is
          // not under that TopK.
          probe = std::move(topk_probe->second);
          ctx->topk_cache_probes.erase(topk_probe);
        } else if (plan->predicate) {
          probe.fingerprint = plan->Fingerprint();
          probe.partitions =
              config_.predicate_cache->Lookup(probe.fingerprint, *table);
        }
      }
      const ScanSet candidates = probe.partitions.has_value()
                                     ? ScanSet(*probe.partitions)
                                     : full;
      const int64_t pruned_by_cache =
          static_cast<int64_t>(full.size() - candidates.size());
      ctx->stats.pruned_by_cache += pruned_by_cache;
      if (probe.partitions.has_value()) ctx->result->predicate_cache_hit = true;

      FilterPruneResult filter_result;
      const bool compile_time_pruning =
          config_.enable_filter_pruning &&
          config_.filter_pruning_phase == FilterPruningPhase::kCompileTime;
      if (compile_time_pruning) {
        FilterPruner pruner(plan->predicate, config_.filter);
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
        ctx->stats.pruned_by_filter += filter_result.pruned;
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
        auto gather = std::make_unique<GatherSourceOp>(
            table, filter_result.scan_set, &ctx->stats);
        ctx->gather = gather.get();
        source = std::move(gather);
      } else {
        auto op = std::make_unique<TableScanOp>(table, filter_result.scan_set,
                                                plan->predicate, &ctx->stats);
        if (config_.enable_filter_pruning && !compile_time_pruning &&
            plan->predicate) {
          // §3.2: pruning deferred to the execution layer. The pruner must
          // outlive the operator tree; the compile context owns it.
          ctx->runtime_filter_pruners.push_back(
              std::make_unique<FilterPruner>(plan->predicate, config_.filter));
          op->AttachRuntimeFilterPruner(
              ctx->runtime_filter_pruners.back().get());
        }
        if (ctx->track_source) op->set_track_source(true);
        scan = op.get();
        source = std::move(op);
      }
      if (config_.exec.specialize && plan->predicate) {
        if (config_.exec.specialize_after == 0) {
          // Eager mode: specialize every compiled filter at query-compile
          // time, no promotion threshold. A gathered scan's program is
          // shared with every shard sub-query, which attach it only when
          // their snapshot holds the table version it is stamped with.
          source->set_compiled_filter(CompileSpecialized(
              plan->predicate, table->schema(), table->instance_id(),
              ctx->opts->trace, ctx->compile_span));
        } else if (probe.partitions.has_value()) {
          // Promotion lifecycle, riding every hit of either entry kind: each
          // repeat bumps the entry's hit count; past the threshold its
          // predicate is compiled exactly once (under the cache mutex —
          // concurrent promoters share the one program) and attached to
          // this scan. Below the threshold an already-promoted entry still
          // serves its program, so one stream's promotion accelerates all.
          PredicateCache* cache = config_.predicate_cache;
          const int64_t entry_hits = cache->NoteHit(probe.fingerprint);
          std::shared_ptr<const jit::CompiledPredicate> program;
          if (entry_hits >= config_.exec.specialize_after) {
            const ExprPtr& predicate = plan->predicate;
            Trace* query_trace = ctx->opts->trace;
            const uint32_t parent_span = ctx->compile_span;
            program = cache->GetOrCompileProgram(
                probe.fingerprint, *table,
                [&predicate, &table, query_trace, parent_span]() {
                  return CompileSpecialized(predicate, table->schema(),
                                            table->instance_id(), query_trace,
                                            parent_span);
                });
          } else if (entry_hits > 0) {
            program = cache->GetProgram(probe.fingerprint, *table);
          }
          if (program != nullptr) {
            source->set_compiled_filter(std::move(program));
          }
        }
      }
      if (scan != nullptr && config_.predicate_cache != nullptr &&
          plan->predicate && !(probe.topk && probe.partitions.has_value())) {
        // Scan entry: recorded over the filter-pruned scan set, published
        // only if the scan delivers all of it (see QualifyingPartitions). A
        // top-k entry's restriction is no such set, so it records nothing.
        scan->RecordQualifying();
        post_run_hooks_.push_back(
            [this, scan, table, coverage,
             fingerprint = probe.topk ? plan->Fingerprint() : probe.fingerprint,
             columns = ReferencedColumns(plan->predicate)]() {
              std::optional<std::vector<PartitionId>> qualifying =
                  scan->QualifyingPartitions();
              if (!qualifying.has_value()) return;
              // Injection site: the population write-back fails after a
              // successful query (cache node fault).
              if (SNOW_FAILPOINT("predcache.populate")) return;
              config_.predicate_cache->Insert(
                  fingerprint, *table,
                  PredicateCache::Population{coverage, "", columns,
                                             std::move(*qualifying)});
            });
      }
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            ctx->leaf != nullptr ? "Gather" : "Scan", plan->table);
        // Compile-time pruning attribution: this scan's share of the
        // query-wide counters bumped above. Runtime deltas flow in through
        // the profile-stats mirror; LIMIT pruning lands here from kLimit.
        node->pruning.total_partitions += static_cast<int64_t>(full.size());
        node->pruning.pruned_by_cache += pruned_by_cache;
        node->pruning.pruned_by_filter += filter_result.pruned;
        source->set_profile(node);
        source->set_profile_stats(&node->pruning);
        ctx->profiled_ops.push_back(source.get());
      }
      if (auto* pending = ctx->FindPendingForScan(plan.get())) {
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
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            "Project", std::to_string(plan->exprs.size()) + " exprs");
        if (child_node != nullptr) node->children.push_back(child_node);
        project->set_profile(node);
        ctx->profiled_ops.push_back(project.get());
      }
      return OperatorPtr(std::move(project));
    }

    case PlanNode::Kind::kLimit: {
      const PlanNode* target = TraceLimitTarget(plan->child);
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
          ctx->stats.pruned_by_limit += res.pruned;
          // LIMIT pruning acts on the target scan's partitions, so the
          // profile charges it to that source node (keeping the per-node
          // sum reconcilable against the query's PruningStats).
          if (info.source->profile() != nullptr) {
            info.source->profile()->pruning.pruned_by_limit += res.pruned;
          }
          ctx->result->limit_class = MapOutcome(res.outcome);
        }
      }
      ProfileNode* child_node = input->profile();
      auto limit = std::make_unique<LimitOp>(std::move(input), plan->limit_k,
                                             plan->limit_offset);
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            "Limit", "k=" + std::to_string(plan->limit_k) + " offset=" +
                         std::to_string(plan->limit_offset));
        if (child_node != nullptr) node->children.push_back(child_node);
        limit->set_profile(node);
        ctx->profiled_ops.push_back(limit.get());
      }
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
      ctx->topk_ops.push_back(topk.get());
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            "TopK", plan->order_column + " k=" + std::to_string(plan->limit_k) +
                        (plan->descending ? " desc" : " asc"));
        if (child_node != nullptr) node->children.push_back(child_node);
        topk->set_profile(node);
        ctx->profiled_ops.push_back(topk.get());
      }
      if (cache_eligible) {
        // Record contributions post-execution; stash what we need. Insert
        // publishes the coalesced population; if the hook is destroyed
        // without running, the captured ticket abandons it instead.
        TopKOp* topk_ptr = topk.get();
        auto& info = ctx->scans.at(trace.scan);
        post_run_hooks_.push_back(
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
      ctx->sort_ops.push_back(sort.get());
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            "Sort",
            plan->order_column + (plan->descending ? " desc" : " asc"));
        if (child_node != nullptr) node->children.push_back(child_node);
        sort->set_profile(node);
        ctx->profiled_ops.push_back(sort.get());
      }
      return OperatorPtr(std::move(sort));
    }

    case PlanNode::Kind::kJoin: {
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
          ctx->topk_ops.push_back(replicated.get());
          if (ctx->profile != nullptr) {
            ProfileNode* node = ctx->profile->NewNode(
                "TopK", pending->scan_column + " k=" +
                            std::to_string(pending->k) + " (replicated)");
            if (build_node != nullptr) node->children.push_back(build_node);
            replicated->set_profile(node);
            ctx->profiled_ops.push_back(replicated.get());
          }
          build = std::move(replicated);
        }
      }

      auto pidx = probe->output_schema().FindColumn(plan->left_key);
      auto bidx = build->output_schema().FindColumn(plan->right_key);
      if (!pidx.has_value() || !bidx.has_value()) {
        return Status::NotFound("join key not found: " + plan->left_key + "/" +
                                plan->right_key);
      }
      HashJoinOp::Config jcfg;
      jcfg.enable_partition_pruning = config_.enable_join_pruning;
      jcfg.summary_kind = config_.join_summary_kind;
      jcfg.summary_budget_bytes = config_.join_summary_budget_bytes;
      jcfg.row_level_bloom = config_.join_row_level_bloom;
      ProfileNode* probe_node = probe->profile();
      ProfileNode* build_child_node = build->profile();
      auto join = std::make_unique<HashJoinOp>(std::move(probe),
                                               std::move(build), pidx.value(),
                                               bidx.value(), plan->join_kind,
                                               jcfg);
      ctx->join_ops.push_back(join.get());
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            "HashJoin", plan->left_key + "=" + plan->right_key);
        if (probe_node != nullptr) node->children.push_back(probe_node);
        if (build_child_node != nullptr) {
          node->children.push_back(build_child_node);
        }
        join->set_profile(node);
        ctx->profiled_ops.push_back(join.get());
      }
      // §6: wire the probe-side scan for partition-level summary pruning.
      // Not for probe-preserved (LEFT OUTER) joins: their unmatched probe
      // rows are emitted null-padded, so a probe partition that cannot
      // match the build side still contributes rows and must not be pruned.
      if (config_.enable_join_pruning &&
          plan->join_kind != JoinKind::kProbeOuter) {
        ColumnTrace key_trace =
            TraceColumnToScan(ctx->tables, plan->left, plan->left_key);
        if (key_trace.scan != nullptr && key_trace.agg_node == nullptr &&
            key_trace.build_join_node == nullptr) {
          auto it = ctx->scans.find(key_trace.scan);
          if (it != ctx->scans.end() && it->second.scan != nullptr) {
            auto col =
                it->second.table->schema().FindColumn(key_trace.column);
            if (col.has_value()) {
              join->AttachProbeScan(it->second.scan, col.value());
            }
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
      if (ctx->profile != nullptr) {
        ProfileNode* node = ctx->profile->NewNode(
            "HashAggregate",
            "groups=" + std::to_string(plan->group_columns.size()) +
                " aggs=" + std::to_string(plan->aggregates.size()));
        if (child_node != nullptr) node->children.push_back(child_node);
        agg->set_profile(node);
        ctx->profiled_ops.push_back(agg.get());
      }
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
  post_run_hooks_.clear();

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

  // Snapshot every referenced table once: DML (ReplaceTable/DropTable) that
  // lands after this point does not affect this query. An injected snapshot
  // (shard sub-queries) extends the same guarantee across a whole scatter.
  if (opts.tables != nullptr) {
    ctx.tables = *opts.tables;
  } else {
    CollectTables(*catalog_, plan, &ctx.tables);
  }

  auto compiled = Compile(plan, &ctx);
  if (opts.trace != nullptr) {
    // Compile-time pruning decisions, readable straight off the span.
    opts.trace->AnnotateInt(compile_span, "total_partitions",
                            ctx.stats.total_partitions);
    opts.trace->AnnotateInt(compile_span, "pruned_by_cache",
                            ctx.stats.pruned_by_cache);
    opts.trace->AnnotateInt(compile_span, "pruned_by_filter",
                            ctx.stats.pruned_by_filter);
    opts.trace->AnnotateInt(compile_span, "pruned_by_limit",
                            ctx.stats.pruned_by_limit);
    opts.trace->EndSpan(compile_span);
  }
  if (!compiled.ok()) {
    // Dropping the hooks releases any coalescing ticket a partial compile
    // acquired, so cache waiters are never stranded by a failed query.
    post_run_hooks_.clear();
    return compiled.status();
  }
  OperatorPtr root = std::move(compiled).value();
  if (leaf != nullptr) {
    Status scattered = leaf->Scatter(ctx.gather, query_span.id());
    if (!scattered.ok()) return scattered;
  }

  // Partition-parallel execution (§2's "highly parallel execution layer"):
  // fan every scan's post-pruning scan set out across the worker pool. An
  // injected pool (service mode) is shared with other queries and its width
  // overrides num_threads; otherwise the engine lazily owns a private pool.
  // A one-worker fleet leaves the scans untouched — the serial path runs
  // bit-for-bit as before, with no pool or scheduler involved.
  ThreadPool* pool = config_.exec.pool;
  const size_t num_threads =
      pool != nullptr ? pool->num_threads()
      : config_.exec.num_threads > 0
          ? static_cast<size_t>(config_.exec.num_threads)
          : ThreadPool::DefaultConcurrency();
  // A sharded query's scans ran on the shards; its gather needs no pool.
  if (leaf == nullptr && (num_threads > 1 || config_.exec.force_parallel)) {
    if (pool == nullptr) {
      if (!pool_ || pool_->num_threads() != num_threads) {
        pool_ = std::make_unique<ThreadPool>(num_threads);
      }
      pool = pool_.get();
    }
    // The default window budgets against the executing pool's real width —
    // for a shared pool that is the service-wide worker fleet, not the
    // per-query thread knob.
    const size_t window = config_.exec.morsel_window > 0
                              ? config_.exec.morsel_window
                              : pool->num_threads() * 4;
    for (auto& [node, info] : ctx.scans) {
      info.scan->EnableParallel(pool, window, config_.exec.morsel_min_rows);
    }
    if (config_.exec.parallel_preagg) {
      // Aggregates sitting directly on a parallel scan may fuse: workers
      // pre-aggregate their morsel and ship a partial group map instead of
      // rows. The operator itself checks the exact-merge eligibility rules.
      for (auto& [node, agg] : ctx.agg_ops) agg->EnableParallelPreAgg();
    }
    if (config_.exec.parallel_pipeline) {
      // Pipeline-parallel operators above the scan: each checks at Open()
      // whether its input really is a parallel scan (and, for top-k, k > 0)
      // before installing its worker stage. Note a scan feeds at most one
      // stage: an aggregate's fold, a join build, a top-k filter, and a
      // sort run can never compete for the same scan in one plan shape.
      for (auto* op : ctx.join_ops) op->EnablePipelineParallel();
      for (auto* op : ctx.topk_ops) op->EnablePipelineParallel();
      for (auto* op : ctx.sort_ops) op->EnablePipelineParallel();
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
    // Dropping the hooks abandons any predicate-cache population ticket.
    post_run_hooks_.clear();
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
    if (opts.collect_batch_rows) result.batch_rows.push_back(batch.rows.size());
    for (auto& row : batch.rows) result.rows.push_back(std::move(row));
  }
  root->Close();
  result.wall_ms = MsSince(t0);

  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    // The operator tree tore down above (Close joins any in-flight
    // workers); partial output is discarded, tickets are abandoned.
    post_run_hooks_.clear();
    return Status::Cancelled("query cancelled");
  }

  // A scan that stopped on a load/dispatch fault reported end-of-scan to its
  // consumers; surface the fault instead of the truncated result. Checked
  // before the deadline so an injected (retryable) error is not masked by a
  // deadline that expired during teardown.
  for (const auto& [node, info] : ctx.scans) {
    if (info.scan != nullptr && !info.scan->error().ok()) {
      post_run_hooks_.clear();
      return info.scan->error();
    }
  }

  if (DeadlinePassed(opts.deadline_ns)) {
    post_run_hooks_.clear();
    return Status::DeadlineExceeded("deadline exceeded during execution");
  }

  for (auto& hook : post_run_hooks_) hook();
  post_run_hooks_.clear();

  result.schema = root->output_schema();
  result.stats = ctx.stats;
  // Debug-build soundness audit: no pruning level may claim more partitions
  // than the query had (see PruningStats::DCheckInvariants).
  result.stats.DCheckInvariants();

  if (profile != nullptr) {
    profile->root = root->profile();
    profile->stage_tasks = opts.trace->stage_tasks();
    profile->barrier_tasks = opts.trace->barrier_tasks();
    result.profile = profile;
#if SNOW_DCHECK_IS_ON
    if (opts.scan_sets == nullptr) {
      // Per-node attribution must reconcile exactly: the profile's summed
      // pruning counters are the query's PruningStats, redistributed over
      // the source nodes. (Scan-set overrides skip compile-time metering —
      // the coordinator's gather accounts the whole sharded query.)
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
    }
#endif
  }
  return result;
}

}  // namespace snowprune
