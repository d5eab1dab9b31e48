#ifndef SNOWPRUNE_EXPR_EVALUATOR_H_
#define SNOWPRUNE_EXPR_EVALUATOR_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "expr/expr.h"
#include "storage/partition.h"

namespace snowprune {

/// Row-wise scalar evaluation of a bound expression against one row of a
/// micro-partition. NULL propagates per SQL semantics; division by zero
/// yields NULL; comparisons across incompatible kinds yield NULL.
Value EvalScalar(const Expr& expr, const MicroPartition& partition, size_t row);
/// The same tree walk over a boxed row (the operators above a scan): the
/// two overloads differ only in how a column reference reads its cell.
Value EvalScalar(const Expr& expr, const Row& row);

/// Predicate evaluation in SQL three-valued logic: true/false, or nullopt
/// for NULL.
std::optional<bool> EvalPredicate(const Expr& expr,
                                  const MicroPartition& partition, size_t row);

/// Evaluates a predicate over all rows of a partition; mask[i] == 1 iff the
/// row satisfies the predicate (NULL counts as not satisfied). Row-by-row
/// scalar evaluation — kept brute-force on purpose, as the oracle the
/// vectorized path is property-tested against.
std::vector<uint8_t> EvalPredicateMask(const Expr& expr,
                                       const MicroPartition& partition);

/// Three-valued outcome encoding used by the vectorized predicate path.
enum PredicateOutcome : uint8_t {
  kPredFalse = 0,
  kPredTrue = 1,
  kPredNull = 2,
};

/// Per-row lane tags for NumericLanes: which lane holds row r's value.
/// Mirrors the scalar evaluator's dynamic numeric typing (int64 arithmetic
/// with per-row overflow fallback to double) without boxing a Value per row.
enum NumericLaneKind : uint8_t {
  kLaneNull = 0,
  kLaneInt64 = 1,
  kLaneDouble = 2,
};

/// The unboxed result of evaluating an arithmetic/IF value subtree over a
/// partition: parallel int64/double lanes plus a per-row kind tag (the null
/// mask is kind == kLaneNull). Indexed by physical row; only the lane named
/// by `kind[r]` is meaningful for row r.
struct NumericLanes {
  std::vector<uint8_t> kind;
  std::vector<int64_t> i64;
  std::vector<double> f64;

  void Resize(size_t n) {
    kind.resize(n);
    i64.resize(n);
    f64.resize(n);
  }
};

/// Reusable buffers for the vectorized predicate path. Evaluating a
/// connective needs one term buffer per nesting level, ComputeSelection
/// needs an outcome buffer, selection-aware AND/OR need an active-row list
/// per level, and typed arithmetic/IF need a pair of value-lane buffers per
/// expression depth; without a scratch all of these are heap-allocated anew
/// for every partition, which the scan hot path feels as allocator pressure.
/// Callers keep one scratch per evaluating thread and pass it to every
/// partition's evaluation; buffers grow to the high-water partition size and
/// stay (grow-only — the worker-side morsel fold reuses one scratch per pool
/// thread across every query that lands on it). Deques keep buffer
/// references stable while nested expressions extend the pools
/// mid-recursion. Not thread-safe: one scratch must never serve two
/// concurrent evaluations.
struct EvalScratch {
  std::vector<uint8_t> outcomes;                ///< ComputeSelection's mask.
  std::deque<std::vector<uint8_t>> term_buffers;///< One per mask depth.
  size_t term_depth = 0;                        ///< Currently acquired count.
  std::deque<std::vector<uint32_t>> row_buffers;///< Active-row lists.
  size_t row_depth = 0;
  std::deque<NumericLanes> lane_buffers;        ///< Arithmetic/IF lanes.
  size_t lane_depth = 0;
};

/// Vectorized predicate evaluation (the ColumnBatch hot path): fills `out`
/// with one PredicateOutcome per partition row. Semantics are identical to
/// EvalPredicate row-by-row; comparisons against literals, column-column
/// comparisons, AND/OR/NOT, IS [NOT] NULL, IN, LIKE and STARTSWITH over
/// column inputs run unboxed column-at-a-time; arithmetic subtrees run in
/// typed int64/double lanes with per-row overflow/null tags; IF runs
/// vectorized by splitting rows on the condition mask; AND terms evaluate
/// only rows not yet proven FALSE and OR terms only rows not yet proven
/// TRUE (selection-aware connectives). Only shapes outside all of that
/// (string/bool-valued subexpressions in value position, unbound columns)
/// fall back to the scalar evaluator, and then only for the rows still
/// alive at that point in the tree.
void EvalPredicateOutcomes(const Expr& expr, const MicroPartition& partition,
                           std::vector<uint8_t>* out);
/// Scratch-reusing variant: connective term buffers come from `scratch`
/// instead of per-call allocations (the scan hot path's form).
void EvalPredicateOutcomes(const Expr& expr, const MicroPartition& partition,
                           std::vector<uint8_t>* out, EvalScratch* scratch);

/// Fills `selection` (replacing its contents) with the physical indexes of
/// the rows of `partition` satisfying `expr`, in ascending order — the
/// selection-vector form consumed by ColumnBatch.
void ComputeSelection(const Expr& expr, const MicroPartition& partition,
                      std::vector<uint32_t>* selection);
/// Scratch-reusing variant (see EvalScratch).
void ComputeSelection(const Expr& expr, const MicroPartition& partition,
                      std::vector<uint32_t>* selection, EvalScratch* scratch);

/// Number of rows in `partition` satisfying `expr` (brute force; the test
/// oracle that pruning results are validated against).
int64_t CountMatches(const Expr& expr, const MicroPartition& partition);

}  // namespace snowprune

#endif  // SNOWPRUNE_EXPR_EVALUATOR_H_
