#ifndef SNOWPRUNE_EXEC_OPS_H_
#define SNOWPRUNE_EXEC_OPS_H_

#include <string>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "expr/expr.h"

namespace snowprune {

/// Computes one output column per expression.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr input, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  void Open() override { input_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override { return schema_; }

 private:
  bool NextInner(Batch* out);

  OperatorPtr input_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// Stops the pipeline after offset + k rows (discarding the first offset) —
/// the "most existing database systems simply halt query processing when
/// the LIMIT has been reached" baseline the paper's §4 improves on.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr input, int64_t k, int64_t offset = 0);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override {
    return input_->output_schema();
  }

 private:
  bool NextInner(Batch* out);

  OperatorPtr input_;
  int64_t k_;
  int64_t offset_;
  int64_t consumed_ = 0;  ///< Rows pulled, including the skipped offset.
};

/// Full in-memory sort (pipeline breaker); the non-pruning baseline for
/// ORDER BY ... LIMIT and the final ordering stage of top-k results.
/// A table-scan input is consumed as ColumnBatches and sorted via an index
/// permutation over the unboxed order-key column — rows are boxed once, in
/// output order, at this operator's boundary.
///
/// Pipeline-parallel mode (a parallel table-scan input):
/// scan workers decorate and stable-sort each partition's surviving rows
/// into a typed-key run while the morsel is still on the worker; the
/// consumer k-way-merges the runs in scan-set order, breaking key ties by
/// run order — exactly the stable_sort-over-concatenation the serial path
/// computes, so the output is byte-identical at any thread count.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr input, size_t order_column, bool descending);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override {
    return input_->output_schema();
  }

 private:
  bool NextInner(Batch* out);

  OperatorPtr input_;
  size_t order_column_;
  bool descending_;
  Batch buffered_;
  bool done_ = false;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_OPS_H_
