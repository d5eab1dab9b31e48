/// Randomized pruning-oracle suite: generates hundreds of random tables and
/// predicates and checks, against the brute-force row-level oracle
/// (MatchCountsPerPartition / full unpruned execution), that no pruning
/// technique ever drops a micro-partition the query still needs — the
/// paper's core "no false negatives" invariant — and that partition-parallel
/// execution returns byte-identical results to serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/filter_pruner.h"
#include "core/limit_pruner.h"
#include "core/predicate_cache.h"
#include "shard/coordinator.h"
#include "shard/shard_map.h"
#include "exec/column_batch.h"
#include "exec/engine.h"
#include "exec/parallel/pipeline.h"
#include "exec/profile.h"
#include "expr/evaluator.h"
#include "expr/range_analysis.h"
#include "expr/builder.h"
#include "test_util.h"
#include "workload/production_model.h"
#include "workload/query_gen.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace {

using testing_util::InvertedFullyMatching;
using testing_util::MatchCountsPerPartition;

// --------------------------------------------------------------------------
// Random tables and predicates
// --------------------------------------------------------------------------

/// `clamped`: a clustered layout whose noise is clamped at both domain
/// ends, so the top (and bottom) key repeats across many partitions — the
/// layout where counting partitions instead of distinct keys goes wrong.
std::shared_ptr<Table> RandomTable(Rng* rng, const std::string& name,
                                   bool clamped = false) {
  workload::TableGenConfig cfg;
  cfg.name = name;
  cfg.num_partitions = static_cast<size_t>(rng->UniformInt(3, 40));
  cfg.rows_per_partition = static_cast<size_t>(rng->UniformInt(5, 60));
  switch (clamped ? 1 : rng->UniformInt(0, 2)) {
    case 0: cfg.layout = workload::Layout::kSorted; break;
    case 1: cfg.layout = workload::Layout::kClustered; break;
    default: cfg.layout = workload::Layout::kRandom; break;
  }
  cfg.overlap = rng->Uniform() * 0.2 + (clamped ? 0.1 : 0.0);
  // Narrow domains make exact boundary collisions (predicate constant ==
  // partition min/max) common — the classic false-pruning hot spot.
  cfg.domain_min = rng->UniformInt(-50, 50);
  cfg.domain_max = cfg.domain_min + rng->UniformInt(10, 2000);
  double nf = rng->Uniform();
  cfg.null_fraction = nf < 0.4 ? 0.0 : (nf < 0.8 ? 0.15 : 0.6);
  cfg.num_categories = static_cast<size_t>(rng->UniformInt(2, 30));
  cfg.seed = rng->Next();
  return workload::SyntheticTable(cfg);
}

/// A literal biased (50%) toward an exact zone-map boundary of `column` in
/// some partition, occasionally nudged by ±1 to sit just inside/outside.
Value BoundaryBiasedLiteral(Rng* rng, const Table& table, size_t column,
                            bool integer) {
  if (table.num_partitions() > 0 && rng->Bernoulli(0.5)) {
    auto pid = static_cast<PartitionId>(
        rng->UniformInt(0, static_cast<int64_t>(table.num_partitions()) - 1));
    const ColumnStats& s = table.stats(pid, column);
    const Value& v = rng->Bernoulli(0.5) ? s.min : s.max;
    if (!v.is_null()) {
      int64_t nudged;
      if (integer && v.is_int64() && rng->Bernoulli(0.3) &&
          !__builtin_add_overflow(v.int64_value(), rng->UniformInt(-1, 1),
                                  &nudged)) {
        return Value(nudged);
      }
      return v;
    }
  }
  if (integer) return Value(rng->UniformInt(-100, 2100));
  return Value(rng->Uniform() * 2.0 - 0.5);
}

CompareOp RandomOp(Rng* rng) {
  switch (rng->UniformInt(0, 5)) {
    case 0: return CompareOp::kEq;
    case 1: return CompareOp::kNe;
    case 2: return CompareOp::kLt;
    case 3: return CompareOp::kLe;
    case 4: return CompareOp::kGt;
    default: return CompareOp::kGe;
  }
}

/// Schema: id(int64) key(int64) val(float64, nullable) cat(string) ts(int64).
ExprPtr RandomPredicate(Rng* rng, const Table& table, int depth) {
  if (depth > 0 && rng->Bernoulli(0.45)) {
    int n = rng->Bernoulli(0.3) ? 3 : 2;
    std::vector<ExprPtr> terms;
    for (int i = 0; i < n; ++i) {
      terms.push_back(RandomPredicate(rng, table, depth - 1));
    }
    ExprPtr combo =
        rng->Bernoulli(0.5) ? And(std::move(terms)) : Or(std::move(terms));
    if (rng->Bernoulli(0.2)) return Not(std::move(combo));
    return combo;
  }
  switch (rng->UniformInt(0, 8)) {
    case 0:  // int column vs boundary constant
    case 1: {
      bool use_key = rng->Bernoulli(0.6);
      return Cmp(RandomOp(rng), Col(use_key ? "key" : "ts"),
                 Lit(BoundaryBiasedLiteral(rng, table, use_key ? 1 : 4, true)));
    }
    case 2:  // float column vs constant (nullable column)
      return Cmp(RandomOp(rng), Col("val"),
                 Lit(BoundaryBiasedLiteral(rng, table, 2, false)));
    case 3: {  // BETWEEN spanning a boundary
      Value a = BoundaryBiasedLiteral(rng, table, 1, true);
      Value b = BoundaryBiasedLiteral(rng, table, 1, true);
      if (Value::Compare(a, b) > 0) std::swap(a, b);
      return Between(Col("key"), a, b);
    }
    case 4: {  // arithmetic on the pruning column
      ExprPtr lhs = rng->Bernoulli(0.5)
                        ? Add(Col("key"), Lit(rng->UniformInt(-20, 20)))
                        : Mul(Col("key"), Lit(int64_t{2}));
      return Cmp(RandomOp(rng), std::move(lhs),
                 Lit(BoundaryBiasedLiteral(rng, table, 1, true)));
    }
    case 5: {  // NULL tests, division, IF, and mixed-type comparisons
      switch (rng->UniformInt(0, 4)) {
        case 0:
          return rng->Bernoulli(0.5) ? IsNull(Col("val"))
                                     : IsNotNull(Col("val"));
        case 1:  // division (result may be NULL on divide-by-zero)
          return Cmp(RandomOp(rng),
                     Div(Col("key"), Lit(rng->UniformInt(-2, 3))),
                     Lit(rng->UniformInt(-50, 500)));
        case 2:  // int column against a fractional constant
          return Cmp(RandomOp(rng), Col("key"),
                     Lit(static_cast<double>(rng->UniformInt(0, 2000)) + 0.5));
        case 3:  // float column against an int constant
          return Cmp(RandomOp(rng), Col("val"), Lit(rng->UniformInt(0, 1)));
        default:  // IF used as a value (§3's altitude example shape)
          return Cmp(RandomOp(rng),
                     If(Gt(Col("ts"), Lit(BoundaryBiasedLiteral(rng, table, 4,
                                                                true))),
                        Mul(Col("key"), Lit(int64_t{2})), Col("key")),
                     Lit(BoundaryBiasedLiteral(rng, table, 1, true)));
      }
    }
    case 6: {  // string prefix / LIKE on cat ("c0000".."cNNNN")
      std::string prefix = rng->Bernoulli(0.5) ? "c0" : "c000";
      return rng->Bernoulli(0.5) ? StartsWith(Col("cat"), prefix)
                                 : Like(Col("cat"), prefix + "%");
    }
    case 7: {  // IN list with boundary values
      std::vector<Value> vals;
      int n = static_cast<int>(rng->UniformInt(1, 4));
      for (int i = 0; i < n; ++i) {
        vals.push_back(BoundaryBiasedLiteral(rng, table, 1, true));
      }
      return In(Col("key"), std::move(vals));
    }
    default:  // column-to-column, or string ordering on cat
      if (rng->Bernoulli(0.3)) {
        Value v = BoundaryBiasedLiteral(rng, table, 3, false);
        if (!v.is_string()) v = Value(std::string("c0100"));
        return Cmp(RandomOp(rng), Col("cat"), Lit(std::move(v)));
      }
      return Cmp(RandomOp(rng), Col("key"), Col("ts"));
  }
}

/// Does a boxed result row satisfy `pred`? NULL counts as not satisfied.
bool RowMatches(const Expr& pred, const Row& row) {
  const Value v = EvalScalar(pred, row);
  return !v.is_null() && v.bool_value();
}

std::string Serialize(const std::vector<Row>& rows) {
  std::string s;
  for (const auto& row : rows) {
    for (const auto& v : row) {
      // Value::type() asserts on NULL (a NULL has no type); tag NULLs out
      // of band so serialized comparisons still distinguish NULL from any
      // typed value.
      s += v.is_null() ? "null" : std::to_string(static_cast<int>(v.type()));
      s += ':';
      s += v.ToString();
      s += ',';
    }
    s += '\n';
  }
  return s;
}

/// TopK(key, k) over GROUP BY key (Figure 7d). Integer aggregates only, so
/// the answer is exact whatever order pruning scans the partitions in.
PlanPtr GroupTopKPlan(const std::string& table, ExprPtr pred, bool desc,
                      int64_t k) {
  return TopKPlan(AggregatePlan(ScanPlan(table, std::move(pred)), {"key"},
                                {AggPlanSpec{AggFunc::kCount, "", "n"},
                                 AggPlanSpec{AggFunc::kSum, "ts", "ts_sum"}}),
                  "key", desc, k);
}

constexpr BoundaryInitMode kAllBoundaryInits[] = {
    BoundaryInitMode::kNone, BoundaryInitMode::kKthMax,
    BoundaryInitMode::kCumulativeMin, BoundaryInitMode::kStricter};

/// A random micro-partition matching the synthetic schema
/// (id int64, key int64, val float64 nullable, cat string, ts int64) —
/// the INSERT/UPDATE payload for the DML-churn and predicate-cache fuzz.
/// In one partition of three `cat` is high-cardinality (nearly every cell
/// distinct), so it keeps the plain string layout; the others usually
/// dictionary-code it.
MicroPartition RandomPartition(Rng* rng, PartitionId id, size_t num_rows = 0) {
  const size_t rows = num_rows > 0
                          ? num_rows
                          : static_cast<size_t>(rng->UniformInt(3, 50));
  const bool distinct_cats = rng->UniformInt(0, 2) == 0;
  ColumnVector ids(DataType::kInt64), key(DataType::kInt64),
      val(DataType::kFloat64), cat(DataType::kString), ts(DataType::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    ids.AppendInt64(rng->UniformInt(0, 1000000));
    key.AppendInt64(rng->UniformInt(-100, 2100));
    if (rng->Bernoulli(0.2)) {
      val.AppendNull();
    } else {
      val.AppendFloat64(rng->Uniform() * 2.0 - 0.5);
    }
    // Beside the cNN categories: an empty cell (a zero-length arena slot)
    // and one longer than the small-string buffer.
    const int64_t c = rng->UniformInt(0, 32);
    cat.AppendString(c == 31   ? std::string()
                     : c == 32 ? std::string("c-long-category-name-over-15")
                     : distinct_cats
                         ? "c" + std::to_string(rng->UniformInt(0, 1000000))
                         : "c" + std::to_string(c));
    ts.AppendInt64(rng->UniformInt(-100, 2100));
  }
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(ids));
  cols.push_back(std::move(key));
  cols.push_back(std::move(val));
  cols.push_back(std::move(cat));
  cols.push_back(std::move(ts));
  return MicroPartition(id, std::move(cols));
}

/// A copy of `old` with one column regenerated: a truthful single-column
/// UPDATE, so the predicate cache can be notified with OnUpdate(column).
MicroPartition UpdateColumn(Rng* rng, const MicroPartition& old,
                            PartitionId id, size_t column) {
  MicroPartition fresh =
      RandomPartition(rng, id, static_cast<size_t>(old.row_count()));
  std::vector<ColumnVector> cols = old.columns();
  cols[column] = fresh.column(column);
  return MicroPartition(id, std::move(cols));
}

// --------------------------------------------------------------------------
// Pruner-level oracles
// --------------------------------------------------------------------------

TEST(FuzzPruneTest, FilterPrunerNeverDropsAMatchingPartition) {
  for (int iter = 0; iter < 140; ++iter) {
    Rng rng(9000 + iter);
    auto table = RandomTable(&rng, "f" + std::to_string(iter));
    ExprPtr pred = RandomPredicate(&rng, *table, 2);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    std::vector<int64_t> oracle = MatchCountsPerPartition(*table, pred);

    FilterPruner pruner(pred);
    FilterPruneResult res = pruner.Prune(*table, table->FullScanSet());
    std::set<PartitionId> kept(res.scan_set.begin(), res.scan_set.end());

    for (size_t pid = 0; pid < table->num_partitions(); ++pid) {
      if (oracle[pid] > 0) {
        ASSERT_TRUE(kept.count(static_cast<PartitionId>(pid)) > 0)
            << "iter " << iter << ": partition " << pid << " with "
            << oracle[pid] << " matching rows was falsely pruned";
      }
    }
    // Fully-matching partitions must match on *every* row (§4.2 precision).
    for (PartitionId pid : res.fully_matching) {
      ASSERT_TRUE(kept.count(pid) > 0);
      ASSERT_EQ(oracle[pid], table->partition_metadata(pid).row_count())
          << "iter " << iter << ": partition " << pid
          << " misclassified as fully matching";
    }
    // The one-pass classification agrees with the paper's inverted two-pass
    // on every kept partition, both ways.
    const std::vector<PartitionId> reference =
        InvertedFullyMatching(*table, pred, res.scan_set);
    ASSERT_EQ(res.fully_matching, reference)
        << "iter " << iter << ": fully-matching set differs from the "
        << "inverted-predicate reference";
    // The per-stats entry point (the cross-shard probe's) prunes only
    // partitions without matches.
    FilterPruner from_stats(pred);
    for (size_t pid = 0; pid < table->num_partitions(); ++pid) {
      const MicroPartition& meta =
          table->partition_metadata(static_cast<PartitionId>(pid));
      if (from_stats.CanPruneFromStats(meta.all_stats(), meta.row_count())) {
        ASSERT_EQ(oracle[pid], 0)
            << "iter " << iter << ": CanPruneFromStats dropped partition "
            << pid << " with matches";
      }
    }
  }
}

/// The sharpest oracle: AnalyzePredicate's three outcome-set flags, checked
/// per partition against a row-by-row evaluation histogram. Every cleared
/// flag is a metadata *proof* ("no row produces this outcome") and must
/// never be contradicted by an actual row — this is where open-vs-closed
/// boundary mistakes at partition min/max surface first.
TEST(FuzzPruneTest, AnalyzePredicateFlagsMatchRowOutcomes) {
  for (int iter = 0; iter < 220; ++iter) {
    Rng rng(61000 + iter);
    auto table = RandomTable(&rng, "a" + std::to_string(iter));
    ExprPtr pred = RandomPredicate(&rng, *table, 2);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());

    for (size_t pid = 0; pid < table->num_partitions(); ++pid) {
      const MicroPartition& part =
          table->partition_metadata(static_cast<PartitionId>(pid));
      std::vector<ColumnStats> stats;
      for (size_t c = 0; c < part.num_columns(); ++c) {
        stats.push_back(part.stats(c));
      }
      BoolRange range = AnalyzePredicate(*pred, stats);

      int64_t true_rows = 0, false_rows = 0, null_rows = 0;
      const size_t n = static_cast<size_t>(part.row_count());
      for (size_t r = 0; r < n; ++r) {
        auto outcome = EvalPredicate(*pred, part, r);
        if (!outcome.has_value()) {
          ++null_rows;
        } else if (*outcome) {
          ++true_rows;
        } else {
          ++false_rows;
        }
      }
      ASSERT_TRUE(range.can_true || true_rows == 0)
          << "iter " << iter << " partition " << pid << ": " << true_rows
          << " TRUE rows but analysis claims none (" << range.ToString()
          << ") — this partition would be falsely pruned";
      ASSERT_TRUE(range.can_false || false_rows == 0)
          << "iter " << iter << " partition " << pid << ": " << false_rows
          << " FALSE rows but analysis claims none (" << range.ToString()
          << ") — this partition would be falsely fully-matching";
      ASSERT_TRUE(range.can_null || null_rows == 0)
          << "iter " << iter << " partition " << pid << ": " << null_rows
          << " NULL rows but analysis claims none (" << range.ToString()
          << ")";
    }
  }
}

TEST(FuzzPruneTest, LimitPrunerAlwaysKeepsEnoughMatchingRows) {
  for (int iter = 0; iter < 120; ++iter) {
    Rng rng(17000 + iter);
    auto table = RandomTable(&rng, "l" + std::to_string(iter));
    ExprPtr pred =
        rng.Bernoulli(0.15) ? nullptr : RandomPredicate(&rng, *table, 2);
    if (pred) ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    std::vector<int64_t> oracle = MatchCountsPerPartition(*table, pred);
    int64_t total_matches = 0;
    for (int64_t c : oracle) total_matches += c;

    FilterPruner pruner(pred);
    FilterPruneResult filtered = pruner.Prune(*table, table->FullScanSet());
    for (int64_t k :
         {int64_t{0}, int64_t{1}, int64_t{7}, rng.UniformInt(1, 500)}) {
      LimitPruneResult res = LimitPruner::Prune(*table, filtered, k);
      int64_t kept_matches = 0;
      for (PartitionId pid : res.scan_set) kept_matches += oracle[pid];
      ASSERT_GE(kept_matches, std::min(k, total_matches))
          << "iter " << iter << " k=" << k << " outcome "
          << ToString(res.outcome)
          << ": LIMIT pruning kept too few matching rows";
    }
  }
}

// --------------------------------------------------------------------------
// Engine-level oracle: pruning on == pruning off, parallel == serial
// --------------------------------------------------------------------------

class FuzzEngine {
 public:
  explicit FuzzEngine(std::shared_ptr<Table> table) {
    EXPECT_TRUE(catalog_.RegisterTable(std::move(table)).ok());
  }

  Catalog* catalog() { return &catalog_; }

  QueryResult RunFull(
      const PlanPtr& plan, bool pruning, int threads,
      bool force_parallel = false, Trace* trace = nullptr,
      BoundaryInitMode boundary_init = BoundaryInitMode::kStricter) {
    EngineConfig config;
    config.enable_filter_pruning = pruning;
    config.enable_limit_pruning = pruning;
    config.enable_topk_pruning = pruning;
    config.enable_join_pruning = pruning;
    config.topk_boundary_init = boundary_init;
    config.exec.num_threads = threads;
    config.exec.force_parallel = force_parallel;
    Engine engine(&catalog_, config);
    ExecuteOptions opts;
    opts.trace = trace;
    auto result = engine.Execute(plan, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  std::vector<Row> Run(const PlanPtr& plan, bool pruning, int threads) {
    return RunFull(plan, pruning, threads).rows;
  }

 private:
  Catalog catalog_;
};

/// All-pruning-on results must be byte-identical across thread counts —
/// and tracing must be observation only: at every thread count, a traced
/// run returns the same rows and the same deterministic PruningStats as
/// the untraced run next to it.
void ExpectParallelIdentical(FuzzEngine* engine, const PlanPtr& plan,
                             const std::vector<Row>& serial_rows,
                             const std::string& context) {
  std::string serial = Serialize(serial_rows);
  for (int threads : {2, 8}) {
    QueryResult untraced = engine->RunFull(plan, true, threads);
    ASSERT_EQ(serial, Serialize(untraced.rows))
        << context << ": parallel rows diverged at num_threads=" << threads;
    Trace trace;
    QueryResult traced =
        engine->RunFull(plan, true, threads, false, &trace);
    ASSERT_EQ(serial, Serialize(traced.rows))
        << context << ": traced rows diverged at num_threads=" << threads;
    ASSERT_EQ(testing_util::DiffStats(traced.stats, untraced.stats), "")
        << context << ": tracing changed stats at num_threads=" << threads;
  }
}

TEST(FuzzPruneTest, EngineAgreesWithUnprunedExecution) {
  for (int iter = 0; iter < 70; ++iter) {
    Rng rng(31000 + iter);
    auto table = RandomTable(&rng, "t");
    const std::string ctx = "iter " + std::to_string(iter);
    FuzzEngine engine(table);

    ExprPtr pred = RandomPredicate(&rng, *table, 2);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    std::vector<int64_t> oracle = MatchCountsPerPartition(*table, pred);
    int64_t total_matches = 0;
    for (int64_t c : oracle) total_matches += c;

    // --- Filtered scan: pruning must not change the row stream at all. ---
    auto scan = ScanPlan("t", pred);
    std::vector<Row> pruned_rows = engine.Run(scan, true, 1);
    ASSERT_EQ(Serialize(engine.Run(scan, false, 1)), Serialize(pruned_rows))
        << ctx << ": filter pruning changed scan results";
    ASSERT_EQ(static_cast<int64_t>(pruned_rows.size()), total_matches) << ctx;
    ExpectParallelIdentical(&engine, scan, pruned_rows, ctx);

    // --- Top-k: the k best order values are unique even with ties. -------
    const char* order_col =
        rng.Bernoulli(0.4) ? "key" : (rng.Bernoulli(0.5) ? "ts" : "val");
    bool desc = rng.Bernoulli(0.5);
    int64_t k = rng.UniformInt(1, 30);
    auto topk = TopKPlan(ScanPlan("t", pred), order_col, desc, k);
    std::vector<Row> topk_on = engine.Run(topk, true, 1);
    std::vector<Row> topk_off = engine.Run(topk, false, 1);
    ASSERT_EQ(topk_on.size(), topk_off.size()) << ctx;
    auto order_idx = table->schema().FindColumn(order_col);
    ASSERT_TRUE(order_idx.has_value());
    auto order_values = [&](const std::vector<Row>& rows) {
      std::vector<std::string> v;
      for (const auto& r : rows) v.push_back(r[*order_idx].ToString());
      std::sort(v.begin(), v.end());
      return v;
    };
    ASSERT_EQ(order_values(topk_on), order_values(topk_off))
        << ctx << ": top-k pruning changed the winning order values";
    for (const auto& row : topk_on) {
      ASSERT_TRUE(RowMatches(*pred, row))
          << ctx << ": top-k returned a row failing the predicate";
    }
    ExpectParallelIdentical(&engine, topk, topk_on, ctx);

    // --- LIMIT: any min(k, matches) matching rows are a valid answer. ----
    auto limit = LimitPlan(ScanPlan("t", pred), k);
    std::vector<Row> limit_on = engine.Run(limit, true, 1);
    ASSERT_EQ(static_cast<int64_t>(limit_on.size()),
              std::min(k, total_matches))
        << ctx << ": LIMIT pruning returned the wrong row count";
    for (const auto& row : limit_on) {
      ASSERT_TRUE(RowMatches(*pred, row)) << ctx;
    }
    ExpectParallelIdentical(&engine, limit, limit_on, ctx);

    // --- Aggregation: emission order is key-sorted, so exact equality. ---
    auto agg = AggregatePlan(ScanPlan("t", pred), {"cat"},
                             {AggPlanSpec{AggFunc::kCount, "", "n"},
                              AggPlanSpec{AggFunc::kSum, "key", "key_sum"},
                              AggPlanSpec{AggFunc::kMin, "ts", "ts_min"}});
    std::vector<Row> agg_on = engine.Run(agg, true, 1);
    ASSERT_EQ(Serialize(engine.Run(agg, false, 1)), Serialize(agg_on)) << ctx;
    ExpectParallelIdentical(&engine, agg, agg_on, ctx);

    // --- Top-k over GROUP BY key: group keys are distinct, so the answer
    // is unique. Every boundary init, on a layout whose extreme key
    // repeats across many partitions. ---------------------------------
    auto clamped = RandomTable(&rng, "g", /*clamped=*/true);
    FuzzEngine group_engine(clamped);
    ExprPtr group_pred = RandomPredicate(&rng, *clamped, 1);
    ASSERT_TRUE(BindExpr(group_pred, clamped->schema()).ok());
    const bool group_desc = rng.Bernoulli(0.5);
    const int64_t group_k = rng.UniformInt(2, 8);
    for (const ExprPtr& p : {ExprPtr(), group_pred}) {
      auto group_topk = GroupTopKPlan("g", p, group_desc, group_k);
      const std::string off =
          Serialize(group_engine.Run(group_topk, false, 1));
      for (BoundaryInitMode init : kAllBoundaryInits) {
        for (int threads : {1, 4}) {
          QueryResult on =
              group_engine.RunFull(group_topk, true, threads, false, nullptr,
                                   init);
          ASSERT_EQ(off, Serialize(on.rows))
              << ctx << ": group top-k (" << (p ? "filtered" : "unfiltered")
              << ", init " << ToString(init) << ", threads " << threads
              << ") differs from the unpruned answer";
        }
      }
    }

    // --- Top-k over rows a LIMIT or a TopK already cut: the outer TopK
    // ranks exactly the inner operator's rows. Over the LIMIT that means
    // the best of the rows the pruned LIMIT above returned (NULL order
    // keys never enter a heap); over an opposite-direction TopK the
    // winning order values are unique, as for a plain top-k. ----------
    const int64_t outer_k = k / 2 + 1;
    auto topk_over_limit = TopKPlan(LimitPlan(ScanPlan("t", pred), k),
                                    order_col, desc, outer_k);
    std::vector<Row> ranked;
    for (const Row& row : limit_on) {
      if (!row[*order_idx].is_null()) ranked.push_back(row);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](const Row& a, const Row& b) {
                       const int c = Value::Compare(a[*order_idx],
                                                    b[*order_idx]);
                       return desc ? c > 0 : c < 0;
                     });
    if (static_cast<int64_t>(ranked.size()) > outer_k) ranked.resize(outer_k);
    std::vector<Row> over_limit = engine.Run(topk_over_limit, true, 1);
    ASSERT_EQ(order_values(over_limit), order_values(ranked))
        << ctx << ": top-k over LIMIT did not rank the LIMIT's rows";
    ExpectParallelIdentical(&engine, topk_over_limit, over_limit, ctx);

    auto topk_over_topk = TopKPlan(TopKPlan(ScanPlan("t", pred), order_col,
                                            desc, k),
                                   order_col, !desc, outer_k);
    std::vector<Row> over_topk = engine.Run(topk_over_topk, true, 1);
    ASSERT_EQ(order_values(over_topk),
              order_values(engine.Run(topk_over_topk, false, 1)))
        << ctx << ": top-k over top-k changed the winning order values";
    ExpectParallelIdentical(&engine, topk_over_topk, over_topk, ctx);
  }
}

/// Asserts that the vectorized selection of every partition of `table`
/// equals the scalar oracle's mask (EvalPredicateMask, row by row through
/// EvalScalar), and that the scratch pools unwound. A null `scratch` takes
/// the allocating ComputeSelection overload.
void ExpectSelectionMatchesScalar(const Table& table, const ExprPtr& pred,
                                  EvalScratch* scratch,
                                  const std::string& ctx) {
  for (size_t pid = 0; pid < table.num_partitions(); ++pid) {
    const MicroPartition& part =
        table.partition_metadata(static_cast<PartitionId>(pid));
    std::vector<uint8_t> oracle = EvalPredicateMask(*pred, part);
    std::vector<uint32_t> selection;
    if (scratch != nullptr) {
      ComputeSelection(*pred, part, &selection, scratch);
      ASSERT_EQ(scratch->term_depth, 0u) << ctx;
      ASSERT_EQ(scratch->lane_depth, 0u) << ctx;
      ASSERT_EQ(scratch->row_depth, 0u) << ctx;
    } else {
      ComputeSelection(*pred, part, &selection);
    }
    std::vector<uint32_t> expected;
    for (uint32_t r = 0; r < oracle.size(); ++r) {
      if (oracle[r]) expected.push_back(r);
    }
    ASSERT_EQ(selection, expected) << ctx << " partition " << pid
                                   << " predicate " << pred->ToString();
  }
}

/// Hand-picked numeric edges beside the random streams: int64 overflow
/// boundaries on + - x, zero divisors, NULLs in both numeric lanes, NaN,
/// infinities and -0.0, and strings for the per-term fallbacks.
/// Schema: a(int64) b(int64, nullable) x(float64, nullable) s(string,
/// nullable); 64 rows cut into partitions of 9.
std::shared_ptr<Table> NumericEdgeTable() {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<int64_t> as = {0, 1, -1, 7, kMax, kMin, kMax - 1, 100};
  const std::vector<Value> bs = {Value(int64_t{0}), Value::Null(),
                                 Value(int64_t{3}), Value(kMax),
                                 Value(int64_t{-5}), Value(int64_t{2}),
                                 Value::Null(), Value(kMin + 1)};
  const std::vector<Value> xs = {Value(kNan), Value(0.5), Value::Null(),
                                 Value(kInf), Value(-kInf), Value(-0.0),
                                 Value(1e18), Value(3.25)};
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < 64; ++i) {
    rows.push_back({Value(as[i % as.size()]), bs[(i / 3) % bs.size()],
                    xs[(i / 5) % xs.size()],
                    i % 4 == 0 ? Value::Null()
                               : Value("row" + std::to_string(i % 6))});
  }
  return testing_util::MakeTable(
      "edges",
      Schema({Field{"a", DataType::kInt64, false},
              Field{"b", DataType::kInt64, true},
              Field{"x", DataType::kFloat64, true},
              Field{"s", DataType::kString, true}}),
      rows, 9);
}

/// The synthetic schema (id, key, val, cat, ts) plus flag(bool), with key,
/// val, cat and flag nullable, in 12 partitions of 8 rows. Each nullable
/// column is NULL-free in four partitions, all-NULL in four and mixed in
/// four, with the modes staggered across columns, so the kernels run their
/// mask-free and masked loops side by side (a NULL-free partition keeps no
/// mask) and a column-vs-column term meets every pairing.
///
/// Each int64 column (id, key, ts) also takes one of four value ranges per
/// partition, staggered the same way: small values (16-bit offsets), the
/// whole int64 range (INT64_MIN..INT64_MAX), a range of exactly 2^32 (both
/// wide) and a range of exactly 2^32 - 1 (the widest that narrows to 32-bit
/// offsets), each from a base that may be negative. Every range meets every
/// NULL mode of key. In every fourth partition cat's values are nearly all
/// distinct, so it stays plain where the others are dictionary-coded. The
/// table is checked to read back the rows it was built from.
std::shared_ptr<Table> MixedNullTable(const std::string& name, uint64_t seed) {
  constexpr int64_t kPartitions = 12, kRows = 8;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kSpan = int64_t{1} << 32;
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  for (int64_t p = 0; p < kPartitions; ++p) {
    // Int column j's range in partition p; rows 1 and 2 (never NULL) hold
    // its two ends. Range 0: small values; 1: all of int64; 2: 2^32; 3:
    // 2^32 - 1.
    const int64_t base = rng.UniformInt(-60, 60) * 1'000'000'007;
    auto int_cell = [&](int64_t j, int64_t r) {
      const int64_t range = (p / 3 + j) % 4;
      if (range == 0) return rng.UniformInt(-20, 60);
      if (range == 1) {
        if (r == 1) return kMin;
        if (r == 2) return kMax;
        const int64_t picks[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
        return picks[rng.UniformInt(0, 6)];
      }
      const int64_t top = base + (range == 2 ? kSpan : kSpan - 1);
      if (r == 1) return base;
      if (r == 2) return top;
      switch (rng.UniformInt(0, 3)) {
        case 0: return base + rng.UniformInt(0, 1);
        case 1: return top - rng.UniformInt(0, 1);
        default: return base + rng.UniformInt(0, top - base);
      }
    };
    for (int64_t r = 0; r < kRows; ++r) {
      // Column j's mode in partition p: 0 NULL-free, 1 all-NULL, 2 mixed
      // (row 0 NULL, rows 1 and 2 valid, the rest NULL with probability
      // 0.4).
      auto is_null = [&](int64_t j) {
        switch ((p + j) % 3) {
          case 0: return false;
          case 1: return true;
          default: return r == 0 || (r > 2 && rng.Bernoulli(0.4));
        }
      };
      const bool key_null = is_null(0), val_null = is_null(1),
                 cat_null = is_null(2), flag_null = is_null(3);
      rows.push_back(
          {Value(int_cell(1, r)),
           key_null ? Value::Null() : Value(int_cell(0, r)),
           val_null ? Value::Null() : Value(rng.Uniform() * 40.0 - 10.0),
           cat_null   ? Value::Null()
           : p % 4 == 3 ? Value("u" + std::to_string(rng.UniformInt(0, 999999)))
                        : Value("c" + std::to_string(rng.UniformInt(0, 12))),
           Value(int_cell(2, r)),
           flag_null ? Value::Null() : Value(rng.Bernoulli(0.5))});
    }
  }
  auto table = testing_util::MakeTable(
      name,
      Schema({Field{"id", DataType::kInt64, false},
              Field{"key", DataType::kInt64, true},
              Field{"val", DataType::kFloat64, true},
              Field{"cat", DataType::kString, true},
              Field{"ts", DataType::kInt64, false},
              Field{"flag", DataType::kBool, true}}),
      rows, kRows);
  for (size_t i = 0; i < rows.size(); ++i) {
    const MicroPartition& part =
        table->partition_metadata(static_cast<PartitionId>(i / kRows));
    for (size_t c = 0; c < rows[i].size(); ++c) {
      const Value got = part.column(c).ValueAt(i % kRows);
      if (!(got == rows[i][c])) {
        ADD_FAILURE() << name << " row " << i << " column " << c
                      << " reads back " << got.ToString() << ", built from "
                      << rows[i][c].ToString();
        return table;
      }
    }
  }
  return table;
}

/// Asserts that every nullable column of a MixedNullTable has mask-free,
/// all-NULL and mixed partitions, so neither kernel path is tested
/// vacuously.
void ExpectBothNullPaths(const Table& table) {
  for (size_t c : {1, 2, 3, 5}) {
    int mask_free = 0, all_null = 0, mixed = 0;
    for (size_t p = 0; p < table.num_partitions(); ++p) {
      const auto pid = static_cast<PartitionId>(p);
      const MicroPartition& part = table.partition_metadata(pid);
      if (!part.column(c).has_nulls()) {
        ++mask_free;
      } else if (table.stats(pid, c).null_count == part.row_count()) {
        ++all_null;
      } else {
        ++mixed;
      }
    }
    ASSERT_GT(mask_free, 0) << "column " << c;
    ASSERT_GT(all_null, 0) << "column " << c;
    ASSERT_GT(mixed, 0) << "column " << c;
  }
}

/// Asserts that the cat column of a MixedNullTable has dictionary-coded
/// partitions and plain ones holding a non-NULL cell.
void ExpectBothStringLayouts(const Table& table) {
  int coded = 0, plain = 0;
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    const auto pid = static_cast<PartitionId>(p);
    if (table.partition_metadata(pid).column(3).layout() !=
        ColumnLayout::kPlain) {
      ++coded;
    } else if (table.stats(pid, 3).null_count < table.stats(pid, 3).row_count) {
      ++plain;
    }
  }
  ASSERT_GT(coded, 0);
  ASSERT_GT(plain, 0);
}

/// Asserts that every int64 column of a MixedNullTable has partitions in
/// each int64 layout (16-bit offsets, 32-bit offsets, wide), key each with
/// and without NULLs, and that both sides of the 2^32 boundary occur: a
/// range of 2^32 - 1 took 32-bit offsets and a range of 2^32 stayed wide.
void ExpectBothIntLayouts(const Table& table) {
  const ColumnLayout layouts[] = {ColumnLayout::kOffsets16,
                                  ColumnLayout::kOffsets32,
                                  ColumnLayout::kPlain};
  for (size_t c : {0, 1, 4}) {
    // [layout][has a bitmap]
    int seen[3][2] = {{0, 0}, {0, 0}, {0, 0}};
    bool boundary_narrow = false, boundary_wide = false;
    for (size_t p = 0; p < table.num_partitions(); ++p) {
      const auto pid = static_cast<PartitionId>(p);
      const ColumnVector& col = table.partition_metadata(pid).column(c);
      for (int l = 0; l < 3; ++l) {
        if (col.layout() == layouts[l]) ++seen[l][col.has_nulls()];
      }
      const ColumnStats& s = table.stats(pid, c);
      if (s.min.is_null()) continue;
      const uint64_t range = static_cast<uint64_t>(s.max.int64_value()) -
                             static_cast<uint64_t>(s.min.int64_value());
      if (range == (uint64_t{1} << 32) - 1) {
        ASSERT_EQ(col.layout(), ColumnLayout::kOffsets32)
            << "column " << c << " partition " << p;
        boundary_narrow = true;
      }
      if (range == uint64_t{1} << 32) {
        ASSERT_EQ(col.layout(), ColumnLayout::kPlain)
            << "column " << c << " partition " << p;
        boundary_wide = true;
      }
    }
    const bool nullable = table.schema().field(c).nullable;
    for (int l = 0; l < 3; ++l) {
      for (int masked : {0, 1}) {
        if (masked && !nullable) continue;
        ASSERT_GT(seen[l][masked], 0)
            << "column " << c << " layout " << l
            << (masked ? " with" : " without") << " NULLs";
      }
    }
    ASSERT_TRUE(boundary_narrow) << "column " << c;
    ASSERT_TRUE(boundary_wide) << "column " << c;
  }
}

/// Checks each edge predicate over `table` (NumericEdgeTable unless given)
/// against the scalar oracle.
void ExpectEdgesMatchScalar(std::vector<ExprPtr> predicates,
                            std::shared_ptr<Table> table = nullptr) {
  if (table == nullptr) table = NumericEdgeTable();
  EvalScratch scratch;
  for (size_t i = 0; i < predicates.size(); ++i) {
    ASSERT_TRUE(BindExpr(predicates[i], table->schema()).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSelectionMatchesScalar(
        *table, predicates[i], &scratch, "edge " + std::to_string(i)));
  }
}

/// The vectorized selection path (ColumnBatch hot path) must agree with the
/// brute-force scalar mask on every random table × predicate — including
/// the shapes that take the per-row fallback (arithmetic, IF) — and on the
/// compare/connective/IN edges: NaN orderings, NULL-heavy AND/OR terms,
/// mixed int/double IN-lists, and string terms beside numeric ones.
TEST(FuzzPruneTest, VectorizedSelectionAgreesWithScalarOracle) {
  for (int iter = 0; iter < 150; ++iter) {
    Rng rng(73000 + iter);
    auto table = RandomTable(&rng, "v" + std::to_string(iter));
    ExprPtr pred = RandomPredicate(&rng, *table, 2);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSelectionMatchesScalar(
        *table, pred, nullptr, "iter " + std::to_string(iter)));
  }
  for (int iter = 0; iter < 40; ++iter) {
    Rng rng(74000 + iter);
    auto table = MixedNullTable("mn", rng.Next());
    ASSERT_NO_FATAL_FAILURE(ExpectBothNullPaths(*table));
    ASSERT_NO_FATAL_FAILURE(ExpectBothIntLayouts(*table));
    ASSERT_NO_FATAL_FAILURE(ExpectBothStringLayouts(*table));
    ExprPtr pred = RandomPredicate(&rng, *table, 2);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    ASSERT_NO_FATAL_FAILURE(ExpectSelectionMatchesScalar(
        *table, pred, nullptr, "mixed-null iter " + std::to_string(iter)));
  }
  // Every predicate kernel over the mixed-null columns: column vs literal
  // of each type, column vs column across mask-free and masked partitions,
  // IS [NOT] NULL, IN, LIKE / STARTSWITH and a bare bool column.
  ExpectEdgesMatchScalar(
      {
          Gt(Col("key"), Lit(int64_t{20})),
          Le(Col("key"), Lit(10.5)),
          Ne(Col("val"), Lit(int64_t{3})),
          Ge(Col("cat"), Lit("c5")),
          Eq(Col("flag"), Lit(true)),
          Lt(Col("key"), Col("ts")),
          Ge(Col("val"), Col("key")),
          Ne(Col("cat"), Col("cat")),
          Eq(Col("flag"), Col("flag")),
          IsNull(Col("key")),
          IsNotNull(Col("val")),
          IsNull(Col("cat")),
          IsNotNull(Col("flag")),
          In(Col("key"), {Value(int64_t{3}), Value(7.0), Value::Null()}),
          In(Col("val"), {Value(int64_t{0}), Value(1.5)}),
          In(Col("cat"), {Value("c1"), Value("c7")}),
          In(Col("flag"), {Value(false)}),
          Like(Col("cat"), "c1%"),
          StartsWith(Col("cat"), "c"),
          Col("flag"),
          Not(Col("flag")),
          Or({IsNull(Col("key")),
              And({Col("flag"), Gt(Col("val"), Lit(0.0))})}),
      },
      MixedNullTable("mn", 7));
  ExpectEdgesMatchScalar({
      Le(Col("x"), Lit(0.5)),
      Eq(Col("x"), Col("x")),
      Ne(Col("x"), Lit(0.0)),
      Gt(Col("a"), Col("x")),
      And({Gt(Col("a"), Lit(int64_t{-10})), Le(Col("b"), Lit(int64_t{7})),
           Ge(Col("x"), Lit(-1.0))}),
      Or({IsNull(Col("b")), Gt(Col("a"), Col("b")), Lt(Col("x"), Lit(0.0))}),
      NotTrue(Gt(Col("a"), Lit(int64_t{50}))),
      Not(Or({Eq(Col("b"), Lit(int64_t{3})), IsNull(Col("x"))})),
      And({IsNotNull(Col("x")), IsNull(Col("b"))}),
      In(Col("a"), {Value(int64_t{7}), Value(2.0), Value(int64_t{0})}),
      In(Col("a"), {Value(0.5), Value(-1.0), Value(100.0)}),
      In(Col("x"), {Value(int64_t{0}), Value(0.5), Value(int64_t{3})}),
      In(Col("b"), {Value(3.0), Value::Null(), Value(int64_t{-5})}),
      And({Gt(Col("a"), Lit(int64_t{0})), StartsWith(Col("s"), "row")}),
      Or({Like(Col("s"), "%5"), Le(Col("a"), Lit(int64_t{1}))}),
  });
}

/// A random numeric *value* expression over the synthetic schema: nested
/// arithmetic (all four operators, division by possibly-zero constants),
/// IF-as-value with predicate conditions, numeric columns and literals —
/// the shapes the typed-lane evaluator (PR 4) covers, plus the odd
/// non-numeric leaf to exercise its scalar fallback.
ExprPtr RandomValueExpr(Rng* rng, const Table& table, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    switch (rng->UniformInt(0, 4)) {
      case 0: return Col("key");
      case 1: return Col("ts");
      case 2: return Col("val");  // nullable float64
      case 3: return Lit(rng->UniformInt(-30, 30));
      default:
        return rng->Bernoulli(0.5) ? Lit(rng->Uniform() * 10.0 - 5.0)
                                   : Lit(rng->UniformInt(-3, 3));
    }
  }
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return Add(RandomValueExpr(rng, table, depth - 1),
                 RandomValueExpr(rng, table, depth - 1));
    case 1:
      return Sub(RandomValueExpr(rng, table, depth - 1),
                 RandomValueExpr(rng, table, depth - 1));
    case 2:
      return Mul(RandomValueExpr(rng, table, depth - 1),
                 RandomValueExpr(rng, table, depth - 1));
    case 3:  // divisor often hits zero → NULL rows
      return Div(RandomValueExpr(rng, table, depth - 1),
                 rng->Bernoulli(0.4) ? Lit(rng->UniformInt(-2, 2))
                                     : RandomValueExpr(rng, table, depth - 1));
    default:
      return If(RandomPredicate(rng, table, 1),
                RandomValueExpr(rng, table, depth - 1),
                RandomValueExpr(rng, table, depth - 1));
  }
}

/// A predicate built to stress exactly what PR 4 vectorized: comparisons
/// over arithmetic/IF value lanes, IF in predicate position, and deeply
/// nested AND/OR (whose terms now evaluate selection-aware).
ExprPtr RandomArithIfPredicate(Rng* rng, const Table& table, int depth) {
  if (depth > 0 && rng->Bernoulli(0.5)) {
    if (rng->Bernoulli(0.25)) {
      // IF in predicate position, both branches predicates themselves.
      return If(RandomArithIfPredicate(rng, table, depth - 1),
                RandomArithIfPredicate(rng, table, depth - 1),
                RandomArithIfPredicate(rng, table, depth - 1));
    }
    int n = rng->Bernoulli(0.3) ? 3 : 2;
    std::vector<ExprPtr> terms;
    for (int i = 0; i < n; ++i) {
      terms.push_back(RandomArithIfPredicate(rng, table, depth - 1));
    }
    ExprPtr combo =
        rng->Bernoulli(0.5) ? And(std::move(terms)) : Or(std::move(terms));
    if (rng->Bernoulli(0.2)) return Not(std::move(combo));
    return combo;
  }
  return Cmp(RandomOp(rng), RandomValueExpr(rng, table, 2),
             rng->Bernoulli(0.5)
                 ? RandomValueExpr(rng, table, 1)
                 : Lit(BoundaryBiasedLiteral(rng, table, 1, true)));
}

/// The typed arithmetic/IF lanes and selection-aware connectives must agree
/// with the brute-force scalar evaluator on every row — including NULL
/// propagation through arithmetic, divide-by-zero, int64 overflow fallback
/// to double, and per-row IF branch selection. Beside the random stream,
/// the edge table drives + - x across the int64 bounds, zero divisors,
/// NULL lanes and IF over arithmetic exactly.
TEST(FuzzPruneTest, VectorizedArithIfAgreesWithScalarOracle) {
  for (int iter = 0; iter < 150; ++iter) {
    Rng rng(101000 + iter);
    auto table = RandomTable(&rng, "ai" + std::to_string(iter));
    ExprPtr pred = RandomArithIfPredicate(&rng, *table, 3);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    EvalScratch scratch;  // reused across partitions, as the scan does
    ASSERT_NO_FATAL_FAILURE(ExpectSelectionMatchesScalar(
        *table, pred, &scratch, "iter " + std::to_string(iter)));
  }
  for (int iter = 0; iter < 40; ++iter) {
    Rng rng(102000 + iter);
    auto table = MixedNullTable("mn", rng.Next());
    ASSERT_NO_FATAL_FAILURE(ExpectBothNullPaths(*table));
    ASSERT_NO_FATAL_FAILURE(ExpectBothIntLayouts(*table));
    ASSERT_NO_FATAL_FAILURE(ExpectBothStringLayouts(*table));
    ExprPtr pred = RandomArithIfPredicate(&rng, *table, 3);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    EvalScratch scratch;
    ASSERT_NO_FATAL_FAILURE(ExpectSelectionMatchesScalar(
        *table, pred, &scratch, "mixed-null iter " + std::to_string(iter)));
  }
  // Typed lanes read from mask-free, all-NULL and mixed partitions.
  ExpectEdgesMatchScalar(
      {
          Gt(Add(Col("key"), Col("val")), Lit(int64_t{10})),
          Lt(Mul(Col("key"), Col("ts")), Lit(int64_t{100})),
          Ge(Sub(Col("val"), Lit(int64_t{2})), Col("ts")),
          Le(Div(Col("ts"), Col("key")), Lit(1.0)),
          Gt(If(IsNull(Col("key")), Col("val"), Col("key")), Lit(int64_t{5})),
          IsNull(Add(Col("key"), Col("val"))),
      },
      MixedNullTable("mn", 8));
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  ExpectEdgesMatchScalar({
      // a*3+b overflows for the kMax/kMin rows and falls to double per row.
      Gt(Add(Mul(Col("a"), Lit(int64_t{3})), Col("b")), Lit(int64_t{500000})),
      Gt(Add(Col("a"), Lit(kMax)), Lit(int64_t{0})),
      Lt(Sub(Col("a"), Lit(int64_t{5})), Lit(int64_t{0})),
      Gt(Sub(Lit(kMin), Col("b")), Lit(int64_t{-1})),
      Ge(Mul(Col("a"), Col("a")), Lit(int64_t{49})),
      Lt(Mul(Col("b"), Lit(kMin)), Lit(0.0)),
      // Zero divisors yield NULL, never a match or a crash.
      Gt(Div(Col("a"), Col("b")), Lit(int64_t{2})),
      Le(Div(Col("x"), Col("b")), Lit(1.0)),
      IsNull(Div(Col("a"), Lit(int64_t{0}))),
      // NULL lanes on both sides, and mixed int/double arithmetic.
      Gt(Add(Col("b"), Col("x")), Lit(int64_t{0})),
      Lt(Add(Col("a"), Col("x")), Lit(100.0)),
      Eq(Sub(Col("x"), Col("x")), Lit(0.0)),
      // IF over arithmetic, split on nullable conditions.
      Gt(If(IsNull(Col("b")), Lit(int64_t{-1}), Col("b")), Lit(int64_t{1})),
      Gt(If(Gt(Col("a"), Lit(int64_t{0})), Add(Col("a"), Col("x")),
            Sub(Col("b"), Lit(int64_t{1}))),
         Lit(int64_t{0})),
      Le(If(Gt(Col("x"), Lit(0.0)), Mul(Col("a"), Lit(int64_t{2})),
            Div(Col("b"), Col("a"))),
         Lit(int64_t{10})),
  });
}

/// Columnar-vs-boxed pipeline identity: a join / top-k / sort / aggregate
/// directly over a scan takes the unboxed ColumnBatch path; the same pipeline over an
/// identity projection of the scan is forced onto the boxed-row path. Rows
/// AND PruningStats must be byte-identical between the two, serially and
/// in parallel (1/2/4 threads) — and the columnar pipelines must never call
/// the Materialize() adapter.
TEST(FuzzPruneTest, ColumnarPipelinesMatchBoxedOracle) {
  // Iterations from 40 on run over two MixedNullTables, whose key, val,
  // cat and flag columns mix mask-free and masked partitions and whose int
  // columns mix narrowed and wide ones.
  for (int iter = 0; iter < 52; ++iter) {
    Rng rng(111000 + iter);
    const bool mixed = iter >= 40;
    auto probe =
        mixed ? MixedNullTable("p", rng.Next()) : RandomTable(&rng, "p");
    FuzzEngine engine(probe);
    std::shared_ptr<Table> build;
    if (mixed) {
      ASSERT_NO_FATAL_FAILURE(ExpectBothNullPaths(*probe));
      ASSERT_NO_FATAL_FAILURE(ExpectBothIntLayouts(*probe));
      ASSERT_NO_FATAL_FAILURE(ExpectBothStringLayouts(*probe));
      build = MixedNullTable("b", rng.Next());
    } else {
      workload::TableGenConfig bcfg;
      bcfg.name = "b";
      bcfg.num_partitions = static_cast<size_t>(rng.UniformInt(1, 4));
      bcfg.rows_per_partition = static_cast<size_t>(rng.UniformInt(2, 20));
      bcfg.domain_min = rng.UniformInt(-50, 500);
      bcfg.domain_max = bcfg.domain_min + rng.UniformInt(5, 800);
      bcfg.null_fraction = 0.1;
      bcfg.seed = rng.Next();
      build = workload::SyntheticTable(bcfg);
    }
    ASSERT_TRUE(engine.catalog()->RegisterTable(build).ok());
    // SELECT <every column> FROM (...): same values, same names, but the
    // ProjectOp input forces every consumer above onto boxed rows.
    auto identity = [](PlanPtr scan, const Schema& schema) {
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (const Field& f : schema.fields()) {
        exprs.push_back(Col(f.name));
        names.push_back(f.name);
      }
      return ProjectPlan(std::move(scan), std::move(exprs), std::move(names));
    };
    auto boxed_p = [&](PlanPtr scan) {
      return identity(std::move(scan), probe->schema());
    };

    ExprPtr pred = RandomPredicate(&rng, *probe, 2);
    ASSERT_TRUE(BindExpr(pred, probe->schema()).ok());
    ExprPtr bpred = RandomPredicate(&rng, *probe, 1);
    const char* kMixedOrder[] = {"key", "ts", "val", "cat", "flag"};
    const char* order_col = mixed ? kMixedOrder[rng.UniformInt(0, 4)]
                                  : (rng.Bernoulli(0.5) ? "key" : "val");
    const bool desc = rng.Bernoulli(0.5);
    const int64_t k = rng.UniformInt(1, 25);
    const JoinKind jkind = rng.Bernoulli(0.3)
                               ? (rng.Bernoulli(0.5) ? JoinKind::kProbeOuter
                                                     : JoinKind::kBuildOuter)
                               : JoinKind::kInner;

    // Grouped on the int key, over int inputs only.
    auto int_aggs = [] {
      return std::vector<AggPlanSpec>{
          AggPlanSpec{AggFunc::kCount, "", "n"},
          AggPlanSpec{AggFunc::kSum, "ts", "ts_sum"},
          AggPlanSpec{AggFunc::kMin, "id", "id_min"},
          AggPlanSpec{AggFunc::kMax, "ts", "ts_max"}};
    };
    struct Shape {
      const char* name;
      PlanPtr columnar;
      PlanPtr boxed;
    };
    const Shape shapes[] = {
        {"join",
         JoinPlan(ScanPlan("p", pred), ScanPlan("b", bpred), "key", "key",
                  jkind),
         JoinPlan(boxed_p(ScanPlan("p", pred)),
                  identity(ScanPlan("b", bpred), build->schema()), "key",
                  "key", jkind)},
        {"topk", TopKPlan(ScanPlan("p", pred), order_col, desc, k),
         TopKPlan(boxed_p(ScanPlan("p", pred)), order_col, desc, k)},
        {"sort", SortPlan(ScanPlan("p", pred), order_col, desc),
         SortPlan(boxed_p(ScanPlan("p", pred)), order_col, desc)},
        {"agg", AggregatePlan(ScanPlan("p", pred), {"key"}, int_aggs()),
         AggregatePlan(boxed_p(ScanPlan("p", pred)), {"key"}, int_aggs())},
    };
    for (const Shape& shape : shapes) {
      const std::string ctx =
          "iter " + std::to_string(iter) + " shape " + shape.name;
      QueryResult boxed = engine.RunFull(shape.boxed, true, 1);
      // threads=1 is the serial poolless path; 2/4 run the morsel pipeline
      // WITH the operator stages (parallel join build / top-k candidate
      // filter / sorted runs, PR 5); {1, force_parallel} runs the full
      // pipeline machinery on a one-worker pool — stage scheduling with
      // serial timing, the tightest determinism check.
      struct Mode {
        int threads;
        bool force;
      };
      for (const Mode mode :
           {Mode{1, false}, Mode{2, false}, Mode{4, false}, Mode{1, true}}) {
        const int64_t materialized_before = ColumnBatch::materialize_calls();
        const int64_t stages_before = PipelineCounters::stage_tasks();
        QueryResult columnar =
            engine.RunFull(shape.columnar, true, mode.threads, mode.force);
        ASSERT_EQ(ColumnBatch::materialize_calls(), materialized_before)
            << ctx << ": columnar pipeline materialized a batch at threads="
            << mode.threads;
        ASSERT_EQ(Serialize(boxed.rows), Serialize(columnar.rows))
            << ctx << " threads=" << mode.threads << " force=" << mode.force;
        ASSERT_EQ(testing_util::DiffStats(boxed.stats, columnar.stats), "")
            << ctx << " threads=" << mode.threads << " force=" << mode.force;
        // The forced-parallel run must execute operator pipeline stages
        // whenever the (single-scan) top-k / sort shapes had any morsel to
        // process — a silently-serial fallback would hide real regressions.
        if (mode.force &&
            (std::string(shape.name) == "topk" ||
             std::string(shape.name) == "sort") &&
            columnar.stats.scanned_partitions + columnar.stats.pruned_by_topk >
                0) {
          ASSERT_GT(PipelineCounters::stage_tasks(), stages_before)
              << ctx << ": no pipeline stage ran under force_parallel";
        }
      }
    }
  }
}

/// §8.1: partitions whose zone maps were dropped (external files without
/// metadata) must never be pruned — there is no proof — and query results
/// must stay identical to unpruned execution, serially and in parallel.
TEST(FuzzPruneTest, MissingMetadataIsNeverFalselyPruned) {
  for (int iter = 0; iter < 60; ++iter) {
    Rng rng(83000 + iter);
    auto table = RandomTable(&rng, "m");
    const double fraction = 0.2 + rng.Uniform() * 0.6;
    const size_t dropped = table->DropStatsOnFraction(fraction, rng.Next());
    const std::string ctx =
        "iter " + std::to_string(iter) + " (" + std::to_string(dropped) +
        " partitions without stats)";

    ExprPtr pred = RandomPredicate(&rng, *table, 2);
    ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    std::vector<int64_t> oracle = MatchCountsPerPartition(*table, pred);

    // Pruner level: a stats-less partition can never be pruned (no proof),
    // and no matching partition may be dropped regardless of stats.
    FilterPruner pruner(pred);
    FilterPruneResult res = pruner.Prune(*table, table->FullScanSet());
    std::set<PartitionId> kept(res.scan_set.begin(), res.scan_set.end());
    for (size_t pid = 0; pid < table->num_partitions(); ++pid) {
      const auto id = static_cast<PartitionId>(pid);
      if (!table->partition_metadata(id).has_stats()) {
        ASSERT_TRUE(kept.count(id) > 0)
            << ctx << ": stats-less partition " << pid << " was pruned";
      }
      if (oracle[pid] > 0) {
        ASSERT_TRUE(kept.count(id) > 0)
            << ctx << ": matching partition " << pid << " was pruned";
      }
    }
    // Fully-matching classification still needs to be row-exact.
    for (PartitionId pid : res.fully_matching) {
      ASSERT_EQ(oracle[pid], table->partition_metadata(pid).row_count())
          << ctx;
    }

    // Engine level: pruning on == off, parallel == serial, for the shapes
    // §8.1 stresses (scan, top-k, LIMIT).
    FuzzEngine engine(table);
    auto scan = ScanPlan("m", pred);
    std::vector<Row> rows = engine.Run(scan, true, 1);
    ASSERT_EQ(Serialize(engine.Run(scan, false, 1)), Serialize(rows)) << ctx;
    ExpectParallelIdentical(&engine, scan, rows, ctx);

    int64_t k = rng.UniformInt(1, 20);
    auto topk = TopKPlan(ScanPlan("m", pred), "key", rng.Bernoulli(0.5), k);
    std::vector<Row> topk_rows = engine.Run(topk, true, 1);
    ASSERT_EQ(engine.Run(topk, false, 1).size(), topk_rows.size()) << ctx;
    ExpectParallelIdentical(&engine, topk, topk_rows, ctx);

    int64_t total_matches = 0;
    for (int64_t c : oracle) total_matches += c;
    auto limit = LimitPlan(ScanPlan("m", pred), k);
    std::vector<Row> limit_rows = engine.Run(limit, true, 1);
    ASSERT_EQ(static_cast<int64_t>(limit_rows.size()),
              std::min(k, total_matches))
        << ctx;
    ExpectParallelIdentical(&engine, limit, limit_rows, ctx);
  }
}

/// DML churn between queries: inserts, whole-partition deletes, and
/// replaces (plus occasional zone-map drops) must never desynchronize
/// pruned execution from the brute-force row oracle, serially, in
/// parallel, or sharded: every round's scan, LIMIT and top-k also run
/// through one 4-shard coordinator that lives across the rounds, so its
/// cached shard map must follow the in-place DML, and must match the serial
/// rows and stats.
TEST(FuzzPruneTest, DmlChurnKeepsOracleAgreement) {
  // Partitions queried with `cat` plain and dictionary-coded.
  int cat_layouts[2] = {0, 0};
  for (int iter = 0; iter < 25; ++iter) {
    Rng rng(91000 + iter);
    auto table = RandomTable(&rng, "d");
    FuzzEngine engine(table);
    shard::ShardExecConfig shard_config;
    shard_config.num_shards = 4;
    shard_config.policy = shard::ShardPolicy::kRange;
    shard_config.engine.exec.num_threads = 2;
    shard::ShardCoordinator coordinator(engine.catalog(), shard_config);
    auto expect_sharded_matches_serial = [&](const PlanPtr& plan,
                                             const std::string& ctx) {
      QueryResult serial = engine.RunFull(plan, true, 1);
      auto sharded = coordinator.Execute(plan);
      ASSERT_TRUE(sharded.ok()) << ctx << ": " << sharded.status().ToString();
      ASSERT_TRUE(coordinator.last_exec().sharded) << ctx;
      ASSERT_EQ(Serialize(serial.rows), Serialize(sharded.value().rows))
          << ctx << ": sharded rows diverged after DML";
      ASSERT_EQ(testing_util::DiffStats(serial.stats, sharded.value().stats),
                "")
          << ctx << ": sharded stats diverged after DML";
    };

    for (int round = 0; round < 6; ++round) {
      // One DML operation between queries.
      switch (rng.UniformInt(0, 3)) {
        case 0:  // INSERT: append a fresh partition
          table->AppendPartition(RandomPartition(
              &rng, static_cast<PartitionId>(table->num_partitions())));
          break;
        case 1:  // DELETE: drop a random partition (ids compact)
          if (table->num_partitions() > 1) {
            table->DeletePartition(static_cast<PartitionId>(rng.UniformInt(
                0, static_cast<int64_t>(table->num_partitions()) - 1)));
          }
          break;
        case 2:  // UPDATE: replace a random partition's contents
          if (table->num_partitions() > 0) {
            auto pid = static_cast<PartitionId>(rng.UniformInt(
                0, static_cast<int64_t>(table->num_partitions()) - 1));
            table->ReplacePartition(pid, RandomPartition(&rng, pid));
          }
          break;
        default:  // §8.1 drift: some new files arrive without metadata
          table->DropStatsOnFraction(0.2, rng.Next());
          break;
      }

      for (size_t p = 0; p < table->num_partitions(); ++p) {
        const ColumnVector& cat =
            table->partition_metadata(static_cast<PartitionId>(p)).column(3);
        ++cat_layouts[cat.layout() != ColumnLayout::kPlain];
      }
      ExprPtr pred = RandomPredicate(&rng, *table, 2);
      ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
      std::vector<int64_t> oracle = MatchCountsPerPartition(*table, pred);
      int64_t total_matches = 0;
      for (int64_t c : oracle) total_matches += c;
      const std::string ctx =
          "iter " + std::to_string(iter) + " round " + std::to_string(round);

      auto scan = ScanPlan("d", pred);
      std::vector<Row> rows = engine.Run(scan, true, 1);
      ASSERT_EQ(static_cast<int64_t>(rows.size()), total_matches)
          << ctx << ": pruned scan disagrees with the row oracle after DML";
      ASSERT_EQ(Serialize(engine.Run(scan, false, 1)), Serialize(rows))
          << ctx;
      ExpectParallelIdentical(&engine, scan, rows, ctx);
      ASSERT_NO_FATAL_FAILURE(
          expect_sharded_matches_serial(scan, ctx + " scan"));

      int64_t k = rng.UniformInt(1, 15);
      auto limit = LimitPlan(ScanPlan("d", pred), k);
      ASSERT_EQ(static_cast<int64_t>(engine.Run(limit, true, 1).size()),
                std::min(k, total_matches))
          << ctx;
      ASSERT_NO_FATAL_FAILURE(
          expect_sharded_matches_serial(limit, ctx + " limit"));

      auto topk = TopKPlan(ScanPlan("d", pred), "key", rng.Bernoulli(0.5), k);
      std::vector<Row> topk_rows = engine.Run(topk, true, 1);
      std::vector<Row> topk_off = engine.Run(topk, false, 1);
      // Ties in the order column make several row sets equally valid; the
      // winning order values must agree (multiset equality), as in
      // EngineAgreesWithUnprunedExecution.
      ASSERT_EQ(topk_rows.size(), topk_off.size()) << ctx;
      auto order_values = [&](const std::vector<Row>& rows) {
        std::vector<std::string> v;
        for (const auto& r : rows) v.push_back(r[1].ToString());  // key
        std::sort(v.begin(), v.end());
        return v;
      };
      ASSERT_EQ(order_values(topk_rows), order_values(topk_off)) << ctx;
      ExpectParallelIdentical(&engine, topk, topk_rows, ctx);
      ASSERT_NO_FATAL_FAILURE(
          expect_sharded_matches_serial(topk, ctx + " topk"));
    }
  }
  EXPECT_GT(cat_layouts[0], 0) << "no plain cat partition was queried";
  EXPECT_GT(cat_layouts[1], 0) << "no dictionary-coded cat was queried";
}

/// Predicate caching must never change an answer. Random predicates under
/// scan, TopK, LIMIT and Aggregate-over-scan shapes repeat through one
/// shared cache while DML churns the table between rounds — appends,
/// notified single-column updates and deletes, un-notified replaces and
/// deletes, dropped zone maps — at threads {1,2,4}. Every run must match a
/// cache-off engine: rows exactly for scan, aggregate, and a LIMIT that
/// missed or was served by a scan entry; the winning order values for top-k
/// (ties make several row sets valid, as in
/// EngineAgreesWithUnprunedExecution). A LIMIT served by a k-sufficient
/// entry may return any offset + k qualifying rows, so it is checked by
/// count plus membership: min(k, matches - offset) rows, each satisfying
/// the predicate, multiset-contained in the unlimited answer. Each round
/// opens with a LIMIT whose k and offset change every run, before the scan
/// shape can re-publish a scan entry, so k-sufficient entries are written,
/// served, refreshed and refused. The stats stay sound with the cache
/// credited, and a traced run's per-node sum reconciles pruned_by_cache.
TEST(FuzzPruneTest, PredicateCacheAgreesWithUncachedEngine) {
  int64_t scan_entry_hits = 0, topk_entry_hits = 0, limit_entry_hits = 0,
          cache_pruned = 0;
  for (int iter = 0; iter < 30; ++iter) {
    Rng rng(233000 + iter);
    // The opening LIMIT's k and offset (a stream of its own).
    Rng limit_rng(911000 + iter);
    auto table = RandomTable(&rng, "p");
    FuzzEngine engine(table);
    PredicateCache cache;
    std::vector<ExprPtr> preds;
    for (int i = 0; i < 3; ++i) {
      preds.push_back(RandomPredicate(&rng, *table, 2));
      ASSERT_TRUE(BindExpr(preds.back(), table->schema()).ok());
    }
    const int64_t k = rng.UniformInt(1, 15);
    const bool desc = rng.Bernoulli(0.5);
    // Cached engines at 1, 2 and 4 threads, all sharing `cache`.
    std::vector<std::unique_ptr<Engine>> cached_engines;
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.predicate_cache = &cache;
      config.exec.num_threads = threads;
      cached_engines.push_back(
          std::make_unique<Engine>(engine.catalog(), config));
    }

    for (int round = 0; round < 8; ++round) {
      const std::string ctx =
          "iter " + std::to_string(iter) + " round " + std::to_string(round);
      const auto any_pid = [&]() {
        return static_cast<PartitionId>(rng.UniformInt(
            0, static_cast<int64_t>(table->num_partitions()) - 1));
      };
      switch (round == 0 ? -1 : rng.UniformInt(0, 5)) {
        case 0:  // INSERT
          table->AppendPartition(RandomPartition(
              &rng, static_cast<PartitionId>(table->num_partitions())));
          cache.OnInsert(*table);
          break;
        case 1: {  // UPDATE of one column, notified
          const PartitionId pid = any_pid();
          const auto column = static_cast<size_t>(rng.UniformInt(0, 4));
          table->ReplacePartition(
              pid, UpdateColumn(&rng, table->partition_metadata(pid), pid,
                                column));
          cache.OnUpdate(*table, table->schema().field(column).name);
          break;
        }
        case 2:  // DELETE, notified
          if (table->num_partitions() > 1) {
            const PartitionId pid = any_pid();
            table->DeletePartition(pid);
            cache.OnDelete(*table, pid);
          }
          break;
        case 3: {  // replace, not notified
          const PartitionId pid = any_pid();
          table->ReplacePartition(pid, RandomPartition(&rng, pid));
          break;
        }
        case 4:  // DELETE, not notified
          if (table->num_partitions() > 1) table->DeletePartition(any_pid());
          break;
        case 5:  // §8.1 drift: zone maps lost, data unchanged
          table->DropStatsOnFraction(0.2, rng.Next());
          break;
        default:
          break;
      }

      for (size_t p = 0; p < preds.size(); ++p) {
        const ExprPtr& pred = preds[p];
        const std::string pctx = ctx + " pred " + std::to_string(p);
        // Every LIMIT row comes out of the unlimited answer.
        const std::vector<Row> unlimited =
            engine.Run(ScanPlan("p", pred), true, 1);
        std::multiset<std::string> unlimited_rows;
        for (const Row& row : unlimited) {
          unlimited_rows.insert(Serialize({row}));
        }
        const PlanPtr plans[] = {
            nullptr,  // the opening LIMIT, built per run
            ScanPlan("p", pred),
            TopKPlan(ScanPlan("p", pred), "key", desc, k),
            LimitPlan(ScanPlan("p", pred), k),
            AggregatePlan(ScanPlan("p", pred), {"cat"},
                          {AggPlanSpec{AggFunc::kCount, "", "n"},
                           AggPlanSpec{AggFunc::kSum, "key", "key_sum"}}),
        };
        for (size_t shape = 0; shape < 5; ++shape) {
          const bool is_topk = shape == 2;
          const bool is_limit = shape == 0 || shape == 3;
          const auto answer = [&](const std::vector<Row>& rows) {
            if (!is_topk) return Serialize(rows);
            std::vector<std::string> keys;
            for (const Row& r : rows) keys.push_back(r[1].ToString());
            std::sort(keys.begin(), keys.end());
            std::string s;
            for (const std::string& key : keys) s += key + ",";
            return s;
          };
          std::string expected;
          // Runs 0-2 at 1, 2 and 4 threads; run 3 traced at 2 threads.
          for (size_t run = 0; run < 4; ++run) {
            PlanPtr plan = plans[shape];
            int64_t limit_k = k, offset = 0;
            if (shape == 0) {
              limit_k = limit_rng.UniformInt(1, 40);
              offset = limit_rng.UniformInt(0, 3);
              plan = LimitPlan(ScanPlan("p", pred), limit_k, offset);
            }
            if (run == 0 || shape == 0) {
              expected = answer(engine.Run(plan, true, 1));
            }
            const bool traced = run == 3;
            Trace trace;
            ExecuteOptions opts;
            if (traced) opts.trace = &trace;
            auto result = cached_engines[traced ? 1 : run]->Execute(plan, opts);
            ASSERT_TRUE(result.ok()) << pctx << ": "
                                     << result.status().ToString();
            const QueryResult& r = result.value();
            const std::string sctx = pctx + " shape " + std::to_string(shape) +
                                     " run " + std::to_string(run);
            if (r.predicate_cache_limit_hit) {
              // Any offset + k qualifying rows are a right answer.
              ASSERT_TRUE(is_limit)
                  << sctx << ": a k-sufficient entry served a scan that "
                             "needs every qualifying row";
              ++limit_entry_hits;
              const int64_t matches = static_cast<int64_t>(unlimited.size());
              ASSERT_EQ(
                  static_cast<int64_t>(r.rows.size()),
                  std::min(limit_k, std::max<int64_t>(0, matches - offset)))
                  << sctx << ": a k-sufficient hit returned too few rows";
              std::multiset<std::string> pool = unlimited_rows;
              for (const Row& row : r.rows) {
                ASSERT_TRUE(RowMatches(*pred, row)) << sctx;
                auto at = pool.find(Serialize({row}));
                ASSERT_NE(at, pool.end())
                    << sctx << ": a LIMIT row the unlimited query lacks";
                pool.erase(at);
              }
            } else {
              ASSERT_EQ(expected, answer(r.rows))
                  << sctx << ": the cached engine's answer differs";
            }
            if (is_topk) {
              for (const Row& row : r.rows) {
                ASSERT_TRUE(RowMatches(*pred, row)) << sctx;
              }
            }
            ASSERT_GE(r.stats.pruned_by_cache, 0) << sctx;
            ASSERT_LE(r.stats.scanned_partitions + r.stats.TotalPruned(),
                      r.stats.total_partitions)
                << sctx;
            if (r.predicate_cache_hit) {
              if (!r.predicate_cache_limit_hit) {
                ++(is_topk ? topk_entry_hits : scan_entry_hits);
              }
            } else {
              ASSERT_EQ(r.stats.pruned_by_cache, 0) << sctx;
            }
            cache_pruned += r.stats.pruned_by_cache;
            if (traced) {
              ASSERT_NE(r.profile, nullptr) << sctx;
              ASSERT_EQ(testing_util::DiffStats(r.profile->SumPruning(),
                                                r.stats),
                        "")
                  << sctx << ": EXPLAIN ANALYZE does not reconcile";
            }
          }
        }
      }
    }
  }
  // Non-vacuous: all three entry kinds were served, and hits excluded
  // partitions.
  EXPECT_GT(scan_entry_hits, 0);
  EXPECT_GT(topk_entry_hits, 0);
  EXPECT_GT(limit_entry_hits, 0);
  EXPECT_GT(cache_pruned, 0);
}

TEST(FuzzPruneTest, JoinPruningNeverDropsMatchingProbePartitions) {
  for (int iter = 0; iter < 50; ++iter) {
    Rng rng(47000 + iter);
    auto probe = RandomTable(&rng, "probe");
    FuzzEngine engine(probe);
    // Small build side over a random slice of the probe key domain; ~15%
    // chance of an empty build (the paper's 100%-pruned join case).
    workload::TableGenConfig bcfg;
    bcfg.name = "build";
    bcfg.num_partitions = static_cast<size_t>(rng.UniformInt(1, 4));
    bcfg.rows_per_partition = static_cast<size_t>(rng.UniformInt(2, 20));
    bcfg.domain_min = rng.UniformInt(-50, 1000);
    bcfg.domain_max = bcfg.domain_min + rng.UniformInt(5, 500);
    bcfg.seed = rng.Next();
    auto build = workload::SyntheticTable(bcfg);
    ASSERT_TRUE(engine.catalog()->RegisterTable(build).ok());

    ExprPtr build_pred = rng.Bernoulli(0.15)
                             ? Lt(Col("key"), Lit(int64_t{-10000}))
                             : RandomPredicate(&rng, *build, 1);

    auto join = JoinPlan(ScanPlan("probe"),
                         ScanPlan("build", std::move(build_pred)), "key",
                         "key");
    const std::string ctx = "iter " + std::to_string(iter);
    std::vector<Row> on_rows = engine.Run(join, true, 1);
    std::vector<Row> off_rows = engine.Run(join, false, 1);
    ASSERT_EQ(Serialize(off_rows), Serialize(on_rows))
        << ctx << ": join pruning changed inner-join results";
    ExpectParallelIdentical(&engine, join, on_rows, ctx);
  }
}

// --------------------------------------------------------------------------
// Sharded scatter-gather oracle
// --------------------------------------------------------------------------

/// Sharded execution at every (shard count × engine thread count)
/// must return rows and deterministic PruningStats byte-identical to a
/// serial single-engine run — with the cross-shard counters additive on
/// top — and a shard excluded by its merged zone maps must hold zero
/// matching rows (no false shard prunes), checked against the brute-force
/// row oracle per partition. Plans with a unique answer must also match the
/// pruning-off engine, so a bug the serial and sharded paths share fails.
TEST(FuzzPruneTest, ShardedExecutionMatchesSerialOracle) {
  int64_t total_shards_pruned = 0;
  int64_t summary_pruned_shards = 0;
  for (int iter = 0; iter < 35; ++iter) {
    Rng rng(131000 + iter);
    auto table = RandomTable(&rng, "s");
    const std::string ctx = "iter " + std::to_string(iter);
    FuzzEngine engine(table);

    ExprPtr pred =
        rng.Bernoulli(0.1) ? nullptr : RandomPredicate(&rng, *table, 2);
    if (pred) ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    std::vector<int64_t> oracle = MatchCountsPerPartition(*table, pred);

    // A mixed bag of shapes; top-k over "key" keeps ties harmless for
    // byte-identity (row order within the pipeline is deterministic).
    const int64_t k = rng.UniformInt(1, 25);
    std::vector<PlanPtr> plans;
    plans.push_back(ScanPlan("s", pred));
    plans.push_back(TopKPlan(ScanPlan("s", pred), "key",
                             rng.Bernoulli(0.5), k));
    plans.push_back(LimitPlan(ScanPlan("s", pred), k));
    plans.push_back(SortPlan(ScanPlan("s", pred), "ts", rng.Bernoulli(0.5)));
    plans.push_back(
        AggregatePlan(ScanPlan("s", pred), {"cat"},
                      {AggPlanSpec{AggFunc::kCount, "", "n"},
                       AggPlanSpec{AggFunc::kSum, "key", "key_sum"}}));

    const shard::ShardPolicy policy = rng.Bernoulli(0.5)
                                          ? shard::ShardPolicy::kRange
                                          : shard::ShardPolicy::kHash;

    // Top-k over GROUP BY key on a clamped layout, with and without a
    // predicate, under every boundary init.
    auto clamped = RandomTable(&rng, "g", /*clamped=*/true);
    FuzzEngine group_engine(clamped);
    ExprPtr group_pred = RandomPredicate(&rng, *clamped, 1);
    ASSERT_TRUE(BindExpr(group_pred, clamped->schema()).ok());
    const bool group_desc = rng.Bernoulli(0.5);
    const int64_t group_k = rng.UniformInt(2, 8);

    struct Case {
      FuzzEngine* engine;
      std::shared_ptr<Table> table;
      PlanPtr plan;
      ExprPtr pred;
      bool unique_answer;  ///< Scan, sort, aggregate, group top-k.
      BoundaryInitMode init;
    };
    std::vector<Case> cases;
    for (size_t p = 0; p < plans.size(); ++p) {
      cases.push_back({&engine, table, plans[p], pred, p != 1 && p != 2,
                       BoundaryInitMode::kStricter});
    }
    for (const ExprPtr& p : {ExprPtr(), group_pred}) {
      for (BoundaryInitMode init : kAllBoundaryInits) {
        cases.push_back({&group_engine, clamped,
                         GroupTopKPlan("g", p, group_desc, group_k), p, true,
                         init});
      }
    }

    for (size_t c = 0; c < cases.size(); ++c) {
      const Case& cs = cases[c];
      std::vector<int64_t> case_oracle =
          MatchCountsPerPartition(*cs.table, cs.pred);
      QueryResult serial =
          cs.engine->RunFull(cs.plan, true, 1, false, nullptr, cs.init);
      if (cs.unique_answer) {
        ASSERT_EQ(Serialize(cs.engine->Run(cs.plan, false, 1)),
                  Serialize(serial.rows))
            << ctx << " case " << c << " init " << ToString(cs.init)
            << ": the pruned serial engine differs from the pruning-off one";
      }
      for (size_t shards : {1u, 2u, 4u}) {
        shard::ShardMap map =
            shard::ShardMap::Build(*cs.table, shards, policy);
        for (int threads : {1, 2, 4}) {
          shard::ShardExecConfig config;
          config.num_shards = shards;
          config.policy = policy;
          config.engine.topk_boundary_init = cs.init;
          config.engine.exec.num_threads = threads;
          shard::ShardCoordinator coordinator(cs.engine->catalog(), config);
          auto result = coordinator.Execute(cs.plan);
          ASSERT_TRUE(result.ok()) << ctx << ": " << result.status().ToString();
          const QueryResult& r = result.value();
          // Traced coordinator run: same rows, same deterministic stats —
          // tracing must be observation-only on the sharded path too.
          Trace shard_trace;
          ExecuteOptions traced_opts;
          traced_opts.trace = &shard_trace;
          auto traced = coordinator.Execute(cs.plan, traced_opts);
          ASSERT_TRUE(traced.ok()) << ctx << ": "
                                   << traced.status().ToString();
          const std::string sctx = ctx + " case " + std::to_string(c) +
                                   " shards " + std::to_string(shards) +
                                   " threads " + std::to_string(threads) +
                                   " policy " + ToString(policy);
          ASSERT_TRUE(coordinator.last_exec().sharded) << sctx;
          ASSERT_EQ(Serialize(serial.rows), Serialize(r.rows)) << sctx;
          ASSERT_EQ(testing_util::DiffStats(serial.stats, r.stats), "")
              << sctx;
          ASSERT_EQ(Serialize(r.rows), Serialize(traced.value().rows))
              << sctx << " (traced)";
          ASSERT_EQ(
              testing_util::DiffStats(r.stats, traced.value().stats), "")
              << sctx << " (traced)";
          ASSERT_EQ(r.stats.shards_pruned, traced.value().stats.shards_pruned)
              << sctx << " (traced)";

          // Shard-counter consistency against the shard map itself.
          const auto& info = coordinator.last_exec();
          ASSERT_EQ(r.stats.shards_total,
                    static_cast<int64_t>(map.assigned_shards()))
              << sctx;
          ASSERT_EQ(r.stats.shards_pruned,
                    r.stats.shards_total -
                        static_cast<int64_t>(info.shards_contacted))
              << sctx;
          ASSERT_GE(r.stats.shards_pruned, 0) << sctx;
          total_shards_pruned += r.stats.shards_pruned;

          // No false shard prunes: a summary-excluded shard must hold zero
          // matching rows in EVERY partition it owns (brute force).
          for (size_t s = 0; s < info.summary_pruned.size(); ++s) {
            if (!info.summary_pruned[s]) continue;
            ++summary_pruned_shards;
            for (PartitionId pid : map.shard_partitions(s)) {
              ASSERT_EQ(case_oracle[pid], 0)
                  << sctx << ": shard " << s << " was summary-pruned but its"
                  << " partition " << pid << " holds " << case_oracle[pid]
                  << " matching rows";
            }
          }
        }
      }
    }
  }
  // The sweep must actually exercise the cross-shard level, not just pass
  // vacuously.
  EXPECT_GT(total_shards_pruned, 0);
  EXPECT_GT(summary_pruned_shards, 0);
}

// --------------------------------------------------------------------------
// Chaos oracle: random fault injection at every site
// --------------------------------------------------------------------------

/// Under random fault injection at every failpoint site, every query must
/// either return rows AND deterministic PruningStats byte-identical to its
/// fault-free run (the retry layer absorbed the faults) or fail with a
/// clean, well-typed error — never a crash, hang, partial result, or a
/// diverging "success". Runs the engine at several thread counts and the
/// shard coordinator at several shard counts under every random arming.
TEST(FuzzPruneTest, ChaosInjectionNeverCorruptsOrHangs) {
  // Sites are process-global: guarantee a clean slate and a clean exit even
  // when an ASSERT unwinds out of the loop.
  struct DisarmGuard {
    DisarmGuard() { FailPointRegistry::Instance().DisarmAll(); }
    ~DisarmGuard() { FailPointRegistry::Instance().DisarmAll(); }
  } guard;
  const char* const sites[] = {
      "scan.partition_load",  "pool.dispatch",          "predcache.populate",
      "shard.scatter_launch", "shard.scatter_complete", "shard.gather_replay",
  };
  for (const char* site : sites) FailPointRegistry::Instance().Register(site);

  /// Arms each site independently (40% chance) with a random policy drawn
  /// from the iteration's seeded Rng — probability, every-Nth, or
  /// once-after-K — so the storm is diverse but exactly reproducible.
  auto arm_randomly = [&](Rng* rng) {
    for (const char* site : sites) {
      FailPoint* fp = FailPointRegistry::Instance().Find(site);
      if (!rng->Bernoulli(0.4)) {
        fp->Disarm();
        continue;
      }
      switch (rng->UniformInt(0, 2)) {
        case 0:
          fp->ArmProbability(0.05 + rng->Uniform() * 0.35, rng->Next());
          break;
        case 1:
          fp->ArmEveryNth(static_cast<uint64_t>(rng->UniformInt(2, 6)));
          break;
        default:
          fp->ArmOnceAfterK(static_cast<uint64_t>(rng->UniformInt(0, 3)));
          break;
      }
    }
  };

  int64_t ok_runs = 0, failed_runs = 0, absorbed_retries = 0;
  for (int iter = 0; iter < 200; ++iter) {
    Rng rng(171000 + iter);
    auto table = RandomTable(&rng, "c");
    const std::string ctx = "iter " + std::to_string(iter);
    FuzzEngine engine(table);

    ExprPtr pred =
        rng.Bernoulli(0.2) ? nullptr : RandomPredicate(&rng, *table, 2);
    if (pred) ASSERT_TRUE(BindExpr(pred, table->schema()).ok());
    PlanPtr plan;
    switch (rng.UniformInt(0, 3)) {
      case 0: plan = ScanPlan("c", pred); break;
      case 1:
        plan = TopKPlan(ScanPlan("c", pred), "key", rng.Bernoulli(0.5),
                        rng.UniformInt(1, 20));
        break;
      case 2: plan = LimitPlan(ScanPlan("c", pred), rng.UniformInt(1, 20)); break;
      default:
        plan = AggregatePlan(ScanPlan("c", pred), {"cat"},
                             {AggPlanSpec{AggFunc::kCount, "", "n"}});
        break;
    }

    // Fault-free baseline, then the same plan under a random storm.
    FailPointRegistry::Instance().DisarmAll();
    QueryResult baseline = engine.RunFull(plan, true, 1);
    const std::string base_rows = Serialize(baseline.rows);

    auto check = [&](Result<QueryResult> result, const std::string& sctx) {
      if (result.ok()) {
        ++ok_runs;
        absorbed_retries += result.value().shard_retries;
        ASSERT_EQ(base_rows, Serialize(result.value().rows))
            << sctx << ": an injected-fault run 'succeeded' with different "
            << "rows than the fault-free run";
        ASSERT_EQ(testing_util::DiffStats(baseline.stats,
                                          result.value().stats), "")
            << sctx << ": an injected-fault run diverged in PruningStats";
      } else {
        ++failed_runs;
        ASSERT_FALSE(result.status().message().empty()) << sctx;
        ASSERT_TRUE(result.status().code() == StatusCode::kUnavailable ||
                    result.status().code() == StatusCode::kResourceExhausted)
            << sctx << ": unexpected failure type "
            << result.status().ToString();
      }
    };

    arm_randomly(&rng);
    for (int threads : {1, 2, 4}) {
      EngineConfig config;
      config.exec.num_threads = threads;
      Engine chaos_engine(engine.catalog(), config);
      check(chaos_engine.Execute(plan),
            ctx + " engine threads=" + std::to_string(threads));
    }
    for (size_t shards : {2u, 4u}) {
      shard::ShardExecConfig config;
      config.num_shards = shards;
      config.engine.exec.num_threads = 2;
      config.retry.base_backoff_us = 10;  // keep 200 storms fast
      config.retry.max_backoff_us = 100;
      shard::ShardCoordinator coordinator(engine.catalog(), config);
      check(coordinator.Execute(plan),
            ctx + " shards=" + std::to_string(shards));
    }
    FailPointRegistry::Instance().DisarmAll();

    // Fault-free again after the storm: nothing latches.
    QueryResult after = engine.RunFull(plan, true, 2);
    ASSERT_EQ(base_rows, Serialize(after.rows))
        << ctx << ": results changed after the storm was disarmed";
  }
  // The sweep must exercise both outcomes — storms that are absorbed
  // (including via shard retries) and storms that surface clean errors —
  // or the oracle is vacuous.
  EXPECT_GT(ok_runs, 0);
  EXPECT_GT(failed_runs, 0);
  EXPECT_GT(absorbed_retries, 0)
      << "no successful run ever absorbed a retry — the retry layer was "
      << "never exercised";
}

// --------------------------------------------------------------------------
// Production-mix queries via workload/query_gen
// --------------------------------------------------------------------------

/// The generated production mix must agree across serial, 8-thread and
/// 4-shard execution, and with a serial pruning-off reference engine — the
/// mix includes GROUP BY key ORDER BY key LIMIT k over a clustered table
/// whose clamped top key repeats across partitions.
TEST(FuzzPruneTest, GeneratedProductionQueriesAreParallelSafe) {
  Catalog catalog;
  Rng seed_rng(555);
  for (const char* name : {"probe_a", "probe_b"}) {
    workload::TableGenConfig cfg;
    cfg.name = name;
    cfg.num_partitions = 30;
    cfg.rows_per_partition = 50;
    cfg.layout = name[6] == 'a' ? workload::Layout::kClustered
                                : workload::Layout::kRandom;
    cfg.null_fraction = 0.1;
    cfg.seed = seed_rng.Next();
    ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());
  }
  {
    workload::TableGenConfig cfg;
    cfg.name = "build_small";
    cfg.num_partitions = 2;
    cfg.rows_per_partition = 30;
    cfg.seed = seed_rng.Next();
    ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());
  }
  {
    // Laid out like the benchmark catalog's probe_clustered
    // (StandardCatalog at scale 0.5).
    workload::TableGenConfig cfg;
    cfg.name = "probe_clustered";
    cfg.num_partitions = 100;
    cfg.rows_per_partition = 500;
    cfg.layout = workload::Layout::kClustered;
    cfg.null_fraction = 0.02;
    cfg.seed = seed_rng.Next();
    ASSERT_TRUE(catalog.RegisterTable(workload::SyntheticTable(cfg)).ok());
  }

  EngineConfig serial_config;
  serial_config.exec.num_threads = 1;
  Engine serial(&catalog, serial_config);
  EngineConfig parallel_config;
  parallel_config.exec.num_threads = 8;
  Engine parallel(&catalog, parallel_config);
  EngineConfig reference_config;
  reference_config.enable_filter_pruning = false;
  reference_config.enable_limit_pruning = false;
  reference_config.enable_topk_pruning = false;
  reference_config.enable_join_pruning = false;
  reference_config.exec.num_threads = 1;
  Engine reference(&catalog, reference_config);
  shard::ShardExecConfig shard_config;
  shard_config.num_shards = 4;
  shard_config.engine.exec.num_threads = 2;
  shard::ShardCoordinator sharded(&catalog, shard_config);

  // Pruning may pick different LIMIT rows and different rows among top-k
  // ties, but never a different row count or different order keys.
  auto agrees = [](const workload::GeneratedQuery& q, const QueryResult& a,
                   const QueryResult& ref) {
    switch (q.query_class) {
      case workload::QueryClass::kLimitNoPredicate:
      case workload::QueryClass::kLimitWithPredicate:
        return a.rows.size() == ref.rows.size();
      case workload::QueryClass::kTopK:
      case workload::QueryClass::kTopKGroupBySame:
      case workload::QueryClass::kTopKGroupByAgg: {
        auto keys = [&](const QueryResult& r) {
          const size_t idx = *r.schema.FindColumn(q.plan->order_column);
          std::vector<std::string> out;
          for (const Row& row : r.rows) out.push_back(row[idx].ToString());
          return out;
        };
        return keys(a) == keys(ref);
      }
      default: {
        auto sorted = [](const QueryResult& r) {
          std::vector<std::string> out;
          for (const Row& row : r.rows) out.push_back(Serialize({row}));
          std::sort(out.begin(), out.end());
          return out;
        };
        return sorted(a) == sorted(ref);
      }
    }
  };

  // The default mix, then one tilted toward the top-k classes: GROUP BY x
  // ORDER BY x LIMIT k is 0.12% of the default mix.
  workload::ProductionModel::Config topk_heavy;
  topk_heavy.class_weights = {1, 1, 1, 1, 4, 4, 1, 1};
  workload::QueryGenerator::Config gcfg;
  gcfg.seed = 8844;
  int i = 0;
  for (const workload::ProductionModel& model :
       {workload::ProductionModel(), workload::ProductionModel(topk_heavy)}) {
    workload::QueryGenerator gen(&catalog,
                                 {"probe_a", "probe_b", "probe_clustered"},
                                 {"build_small"}, model, gcfg);
    for (int n = 0; n < 120; ++n, ++i) {
      workload::GeneratedQuery q = gen.Generate();
      const std::string qctx = "query " + std::to_string(i) + " (" +
                               ToString(q.query_class) + ")";
      auto r1 = serial.Execute(q.plan);
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      const std::string serial_rows = Serialize(r1.value().rows);
      auto r2 = parallel.Execute(q.plan);
      ASSERT_TRUE(r2.ok()) << r2.status().ToString();
      ASSERT_EQ(serial_rows, Serialize(r2.value().rows))
          << qctx << " diverged between serial and 8-thread execution";
      ASSERT_EQ(r1.value().stats.scanned_partitions,
                r2.value().stats.scanned_partitions)
          << qctx;
      auto r3 = sharded.Execute(q.plan);
      ASSERT_TRUE(r3.ok()) << r3.status().ToString();
      ASSERT_EQ(serial_rows, Serialize(r3.value().rows))
          << qctx << " diverged between serial and 4-shard execution";
      ASSERT_EQ(testing_util::DiffStats(r1.value().stats, r3.value().stats),
                "")
          << qctx;
      auto ref = reference.Execute(q.plan);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      ASSERT_TRUE(agrees(q, r1.value(), ref.value()))
          << qctx << " differs from the pruning-off reference";
    }
  }
}

}  // namespace
}  // namespace snowprune
