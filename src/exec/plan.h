#ifndef SNOWPRUNE_EXEC_PLAN_H_
#define SNOWPRUNE_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/agg_op.h"
#include "exec/join_op.h"
#include "expr/expr.h"

namespace snowprune {

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// Aggregate description at the plan level (column by name).
struct AggPlanSpec {
  AggFunc func;
  std::string column;  ///< Ignored for kCount (pass "").
  std::string output_name;
};

/// A logical query plan. Built via the factory functions below (the
/// engine's plan-building API in lieu of a SQL frontend), compiled and
/// executed by Engine. Scans carry their WHERE clause; the engine performs
/// compile-time pruning, LIMIT pushdown (§4.3), top-k pruner attachment
/// (Figure 7), and join-summary wiring (§6) during compilation. A plan is a
/// tree: build a fresh node per use, since Engine::Execute refuses a plan
/// that reaches one node twice.
struct PlanNode {
  enum class Kind { kScan, kProject, kLimit, kTopK, kJoin, kAggregate, kSort };

  Kind kind;

  // kScan
  std::string table;
  ExprPtr predicate;  ///< May be null.

  // kProject
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kLimit / kTopK / kSort
  int64_t limit_k = 0;
  int64_t limit_offset = 0;  ///< kLimit only (OFFSET clause).
  std::string order_column;
  bool descending = true;

  // kJoin: left = probe, right = build.
  JoinKind join_kind = JoinKind::kInner;
  std::string left_key;
  std::string right_key;

  // kAggregate
  std::vector<std::string> group_columns;
  std::vector<AggPlanSpec> aggregates;

  // Children: unary operators use child; joins use left/right.
  PlanPtr child;
  PlanPtr left;
  PlanPtr right;

  /// Canonical plan-shape fingerprint (used by the predicate cache and the
  /// Figure 12 repetitiveness analysis).
  std::string Fingerprint() const;
};

/// SELECT * FROM `table` [WHERE predicate].
PlanPtr ScanPlan(std::string table, ExprPtr predicate = nullptr);
/// SELECT exprs AS names FROM child.
PlanPtr ProjectPlan(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<std::string> names);
/// ... LIMIT k [OFFSET offset]. Pruning accounts for offset + k rows
/// (Figure 6's convention: "if the query contained an OFFSET, the value for
/// the offset is included" in k).
PlanPtr LimitPlan(PlanPtr child, int64_t k, int64_t offset = 0);
/// ... ORDER BY order_column [DESC|ASC] LIMIT k.
PlanPtr TopKPlan(PlanPtr child, std::string order_column, bool descending,
                 int64_t k);
/// probe JOIN build ON probe.left_key = build.right_key.
PlanPtr JoinPlan(PlanPtr probe, PlanPtr build, std::string left_key,
                 std::string right_key, JoinKind kind = JoinKind::kInner);
/// GROUP BY group_columns with aggregates.
PlanPtr AggregatePlan(PlanPtr child, std::vector<std::string> group_columns,
                      std::vector<AggPlanSpec> aggregates);
/// ... ORDER BY order_column [DESC|ASC] (full sort, no limit).
PlanPtr SortPlan(PlanPtr child, std::string order_column, bool descending);

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_PLAN_H_
