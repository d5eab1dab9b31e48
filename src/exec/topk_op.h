#ifndef SNOWPRUNE_EXEC_TOPK_OP_H_
#define SNOWPRUNE_EXEC_TOPK_OP_H_

#include <utility>
#include <vector>

#include "common/mutex.h"
#include "core/topk_pruner.h"
#include "exec/operator.h"
#include "exec/scan_op.h"

namespace snowprune {

/// Heap-based top-k (§5, "Standard Heap-Based Approach") extended with
/// boundary publication: whenever the heap is full, its weakest element is
/// pushed to the attached TopKPruner, which the table scan in the same
/// pipeline consults before loading further partitions (§5.2).
///
/// When the input is a table scan the operator consumes ColumnBatches
/// directly: the order-key column is read unboxed for the NULL test and the
/// against-the-boundary comparison, and a row is boxed only at the moment
/// it actually enters the heap — at most k rows live boxed at any time, so
/// the hot loop over the (typically much larger) rejected remainder never
/// constructs a Value. The consumer-side boundary re-check that keeps
/// parallel results and stats byte-identical to serial lives in the scan's
/// ordered delivery (TableScanOp::NextColumns) and is unaffected.
///
/// Pipeline-parallel mode (a parallel table-scan input):
/// the boundary test over every row — the dominant cost — moves onto the
/// scan workers as a per-morsel candidate filter. Each worker keeps a
/// bounded heap over its morsel and a snapshot of the consumer heap's
/// full-heap root; a row is dropped only when one of two *proofs* shows
/// serial execution would also have rejected it at that row's position:
///   1. it is not strictly better than a root the consumer heap had when
///      it was already full (boundaries only tighten, so the serial heap's
///      root at the row's consumption position is at least as strict), or
///   2. at least k earlier rows of the same morsel are at least as good
///      (so the serial heap is full there with an even stricter root).
/// The consumer replays only the surviving candidates — in row order —
/// through the real heap, so the heap's evolution, every published
/// boundary, all pruning stats, and the emitted rows are byte-identical to
/// serial execution at any thread count.
///
/// Rows whose order key is NULL never enter the heap (and thus never appear
/// in results). Output rows are emitted best-first.
class TopKOp : public Operator {
 public:
  /// `pruner` may be null (pruning disabled); the operator then degrades to
  /// the plain heap scan every other system uses.
  TopKOp(OperatorPtr input, size_t order_column, bool descending, int64_t k,
         TopKPruner* pruner);
  /// Joins any in-flight scan workers whose filter stage reads this
  /// operator's shared-root members (member destruction order tears those
  /// down before input_; Close() normally joins first but unwinding can
  /// skip it — TableScanOp::Close() is idempotent).
  ~TopKOp() override;

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { input_->Close(); }
  const Schema& output_schema() const override {
    return input_->output_schema();
  }

  /// Partitions that contributed rows to the final result; recorded for the
  /// top-k predicate cache (§8.2) when the input carries provenance.
  const std::vector<PartitionId>& contributing_partitions() const {
    return contributing_;
  }

 private:
  bool NextInner(Batch* out);

  struct HeapRow {
    Row row;
    PartitionId source;
  };

  /// True if `a` is weaker than `b` under the query's direction (min-heap
  /// root = weakest element = the boundary). Either side is a cell source.
  template <typename A, typename B>
  bool Weaker(const A& a, const B& b) const {
    const int c = CompareScalars(a, b);
    return descending_ ? c < 0 : c > 0;
  }

  /// Installs the worker-side candidate filter on the scan input.
  void InstallFilterStage();
  /// The per-row heap step, the same for boxed and columnar input: offers
  /// a row whose order key `key` (a cell source) is non-null. `box_row()`
  /// returns the boxed row and runs only if the row enters the heap.
  template <typename Cell, typename BoxRow>
  void Offer(const Cell& key, PartitionId source, BoxRow&& box_row);
  /// Consumes the columnar input (scan), feeding the heap unboxed.
  void ConsumeColumns();
  /// Consumes the boxed input.
  void ConsumeRows();
  /// Publishes the boundary once the heap is full (§5.2).
  void MaybePublishBoundary();
  /// Sorts the heap best-first and emits it.
  bool EmitHeap(Batch* out);

  OperatorPtr input_;
  size_t order_column_;
  bool descending_;
  int64_t k_;
  TopKPruner* pruner_;
  /// Set when the input is a TableScanOp consumed via NextColumns().
  TableScanOp* columnar_input_ = nullptr;
  /// True while the candidate-filter stage is installed this execution.
  bool filter_stage_active_ = false;
  std::vector<HeapRow> heap_;
  std::vector<PartitionId> contributing_;
  bool emitted_ = false;

  /// The consumer heap's root, shared with worker filter stages. Written
  /// by the consumer only once the heap is full; monotonically tightening.
  /// Distinct from the TopKPruner boundary: the pruner may hold a stricter
  /// §5.4 *initialization* bound, which proves final-result membership but
  /// not per-row heap admission — filtering against it would change the
  /// heap's evolution (and the published-boundary sequence) vs. serial.
  Mutex shared_root_mutex_;
  bool shared_root_full_ SNOW_GUARDED_BY(shared_root_mutex_) = false;
  Value shared_root_ SNOW_GUARDED_BY(shared_root_mutex_);
  /// True once a NaN order key entered the heap. NaN ties everything under
  /// Value::Compare, so a NaN inside the heap voids root monotonicity (a
  /// replacement can surface a buried weaker element) — the shared root is
  /// then never published and workers filter nothing. A NaN can only enter
  /// while the heap is FILLING (a replacement needs strictly-better, which
  /// NaN never is), so the flag is always set before the first possible
  /// publication: no worker can ever hold an unsound snapshot.
  bool heap_has_nan_ = false;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_TOPK_OP_H_
