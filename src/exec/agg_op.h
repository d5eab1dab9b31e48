#ifndef SNOWPRUNE_EXEC_AGG_OP_H_
#define SNOWPRUNE_EXEC_AGG_OP_H_

#include <map>
#include <string>
#include <vector>

#include "core/topk_pruner.h"
#include "exec/operator.h"
#include "exec/scan_op.h"

namespace snowprune {

/// Aggregate functions supported by HashAggregateOp.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* ToString(AggFunc func);

/// One aggregate: func(input column) AS name.
struct AggSpec {
  AggFunc func;
  size_t column = 0;  ///< Ignored for kCount.
  std::string name;
};

/// Hash aggregation (GROUP BY). Output: group columns then aggregates.
///
/// Supports the Figure 7d top-k shape: when the query is
/// GROUP BY g... ORDER BY g1 LIMIT k with the order column among the group
/// keys, EnableGroupLimit() makes the operator keep a top-k heap of group
/// keys and publish a *strict* boundary to the scan's TopKPruner — rows
/// whose key is strictly weaker than the k-th group key can no longer
/// found a top-k group nor contribute to one ("requires changes to the
/// GROUP BY operator to maintain its own top-k heap", §5.2).
///
/// Over a parallel TableScanOp the scan and aggregate fuse: workers
/// pre-aggregate each morsel into a partial group map which the consumer
/// merges in scan-set order. Only taken when every aggregate merges exactly
/// (COUNT/MIN/MAX always; SUM/AVG only over int64 inputs, whose double
/// accumulation is exact), so results stay byte-identical to serial
/// execution; otherwise the operator falls back to consuming ordered
/// column batches.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(OperatorPtr input, std::vector<size_t> group_columns,
                  std::vector<AggSpec> aggregates);
  /// Joins any in-flight parallel-scan workers whose morsel transform
  /// reads this operator's members (Close() may be skipped by unwinding).
  ~HashAggregateOp() override;

  /// `order_group_index` indexes into group_columns. The pruner (owned by
  /// the planner) must have inclusive_updates == false.
  void EnableGroupLimit(size_t order_group_index, bool descending, int64_t k,
                        TopKPruner* pruner);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override { return schema_; }

 private:
  bool NextInner(Batch* out);

  struct GroupState {
    Row key;
    std::vector<Value> min_max;   ///< Running min/max per aggregate slot.
    std::vector<double> sums;
    std::vector<int64_t> counts;  ///< Non-null inputs per aggregate slot.
    int64_t group_rows = 0;
  };

  struct KeyLess {
    bool operator()(const Row& a, const Row& b) const;
  };

  using GroupMap = std::map<Row, GroupState, KeyLess>;

  /// Looks `key` up in `groups`, inserting a zero-initialized state on
  /// first sight (`created` set true then, if provided). Shared by the
  /// serial accumulation loop and the worker-side morsel transform so the
  /// two paths cannot drift apart.
  GroupState& FindOrCreateGroup(GroupMap* groups, Row key,
                                bool* created = nullptr);
  /// Accumulates one row into `state`; `cell_of(c)` returns the row's
  /// cell source for input column c (a boxed Value, or a ColumnCell).
  template <typename CellOf>
  void Accumulate(GroupState* state, const CellOf& cell_of);
  /// Unboxed accumulation over a ColumnBatch (the scan→aggregate hot
  /// path): group keys are boxed only when they change between consecutive
  /// rows (run detection), aggregate inputs are read straight from the
  /// typed column vectors.
  void AccumulateColumns(GroupMap* groups, const ColumnBatch& batch);
  /// True when the group-key columns compare equal between physical rows
  /// `a` and `b` of `batch` (NULLs equal, matching KeyLess grouping).
  bool SameGroupKeys(const ColumnBatch& batch, uint32_t a, uint32_t b) const;
  Row Finalize(const GroupState& state) const;
  /// Recomputes the k-th best group key and publishes it (strictly).
  void PublishGroupBoundary();
  /// True when merging per-morsel partials reproduces serial accumulation
  /// bit-for-bit: SUM/AVG inputs are int64 AND the zone-map-derived bound
  /// on every running sum stays below 2^53 (exact double integers).
  bool AggsMergeExactly(const TableScanOp& scan) const;
  /// Folds a worker-produced partial group map into groups_.
  void MergePartial(GroupMap* partial);
  /// Finalizes groups_ into the single output batch (sort/limit included).
  bool EmitGroups(Batch* out);

  OperatorPtr input_;
  std::vector<size_t> group_columns_;
  std::vector<AggSpec> aggregates_;
  Schema schema_;

  bool group_limit_enabled_ = false;
  size_t order_group_index_ = 0;
  bool order_descending_ = true;
  int64_t group_limit_k_ = 0;
  TopKPruner* pruner_ = nullptr;

  bool parallel_path_ = false;
  TableScanOp* scan_input_ = nullptr;  ///< Set iff parallel_path_.
  /// Set when the input is a TableScanOp whose batches this operator
  /// consumes unboxed via NextColumns() (serial, or parallel ordered
  /// delivery when fusion is not exact). Group-limit queries stay on the
  /// boxed path (their per-row boundary feedback is row-oriented).
  TableScanOp* columnar_input_ = nullptr;

  GroupMap groups_;
  bool emitted_ = false;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_AGG_OP_H_
