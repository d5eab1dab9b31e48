#include "exec/topk_op.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/trace.h"
#include "exec/column_batch.h"
#include "exec/profile.h"

namespace snowprune {

namespace {

/// One partition's candidate rows (physical indexes, ascending) that
/// survived the worker-side filter; everything else is provably rejected
/// by the serial heap too.
struct TopKItemCandidates {
  std::vector<uint32_t> rows;
};

}  // namespace

TopKOp::TopKOp(OperatorPtr input, size_t order_column, bool descending,
               int64_t k, TopKPruner* pruner)
    : input_(std::move(input)),
      order_column_(order_column),
      descending_(descending),
      k_(k),
      pruner_(pruner) {}

TopKOp::~TopKOp() {
  if (filter_stage_active_ && columnar_input_ != nullptr) {
    columnar_input_->Close();
  }
}

void TopKOp::Open() {
  heap_.clear();
  contributing_.clear();
  emitted_ = false;
  filter_stage_active_ = false;
  heap_has_nan_ = false;
  {
    MutexLock lock(&shared_root_mutex_);
    shared_root_full_ = false;
    shared_root_ = Value::Null();
  }
  columnar_input_ = dynamic_cast<TableScanOp*>(input_.get());
  if (columnar_input_ != nullptr && columnar_input_->parallel_enabled() &&
      k_ > 0) {
    InstallFilterStage();
  }
  input_->Open();
}

void TopKOp::InstallFilterStage() {
  filter_stage_active_ = true;
  const size_t col = order_column_;
  const int64_t k = k_;
  // Float64 keys may contain NaN, which ties with everything under
  // Value::Compare. A NaN buried in the *serial* heap can make the root
  // DECREASE on a later replacement, so "≥ k earlier rows are at least as
  // good" (the local-heap proof) no longer implies serial rejection — and
  // the worker cannot know whether an earlier morsel held a NaN. Float64
  // therefore filters by the snapshot proof only (whose publication the
  // consumer suppresses the moment a NaN enters its heap; see header).
  const bool local_heap_sound =
      columnar_input_->output_schema().field(col).type != DataType::kFloat64;
  columnar_input_->set_morsel_stage([this, col, k,
                                     local_heap_sound](MorselResult* m) {
    // Snapshot of the consumer heap's root, taken once per morsel. Only a
    // *full*-heap root is usable (proof 1 in the class comment); it can be
    // stale — staleness only keeps extra candidates, never drops a row the
    // serial heap would have admitted.
    bool snap_full = false;
    Value snap_root;
    {
      MutexLock lock(&shared_root_mutex_);
      snap_full = shared_root_full_;
      if (snap_full) snap_root = shared_root_;
    }
    // Bounded local heap over the morsel's rows (proof 2): weakest at the
    // root, exactly like the consumer heap, but holding cells — no boxing
    // on the rejection path.
    auto heap_cmp = [this](const ColumnCell& a, const ColumnCell& b) {
      return Weaker(b, a);
    };
    std::vector<ColumnCell> local;
    size_t morsel_rows = 0;
    for (const MorselItem& item : m->items) {
      if (item.loaded) morsel_rows += item.batch.num_rows();
    }
    local.reserve(std::min(static_cast<size_t>(k), morsel_rows));
    for (MorselItem& item : m->items) {
      if (!item.loaded) continue;
      auto cands = std::make_shared<TopKItemCandidates>();
      const ColumnVector& keys = item.batch.column(col);
      const size_t n = item.batch.num_rows();
      WithNullTest(keys, [&](auto is_null) {
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = item.batch.row_index(i);
          if (is_null(r)) continue;  // NULL keys never qualify
          const ColumnCell key{&keys, r};
          // Not strictly better than a full consumer root → serial rejects
          // (sound for NaN candidates too: NaN is never strictly better,
          // and a full serial heap admits only strictly-better rows).
          if (snap_full && !Weaker(snap_root, key)) continue;
          if (!local_heap_sound) {
            cands->rows.push_back(r);
            continue;
          }
          if (static_cast<int64_t>(local.size()) == k) {
            // ≥ k earlier rows of this morsel are at least as good → the
            // serial heap is full here with a root at least this strict.
            if (!Weaker(local.front(), key)) continue;
            std::pop_heap(local.begin(), local.end(), heap_cmp);
            local.back() = key;
            std::push_heap(local.begin(), local.end(), heap_cmp);
          } else {
            local.push_back(key);
            std::push_heap(local.begin(), local.end(), heap_cmp);
          }
          cands->rows.push_back(r);
        }
      });
      item.payload = std::move(cands);
    }
  });
}

void TopKOp::MaybePublishBoundary() {
  if (static_cast<int64_t>(heap_.size()) != k_) return;
  // Publish the boundary once the heap is full (§5.2): the k-th best
  // value seen so far, enabling the scan to skip partitions.
  if (pruner_ != nullptr) {
    pruner_->UpdateBoundary(heap_.front().row[order_column_]);
  }
  if (filter_stage_active_ && !heap_has_nan_) {
    // Feed the worker filters the raw full-heap root (monotone — only
    // while the heap is NaN-free, hence the guard — and never mixed with
    // the pruner's initialization bound; see header).
    MutexLock lock(&shared_root_mutex_);
    shared_root_full_ = true;
    shared_root_ = heap_.front().row[order_column_];
  }
}

template <typename Cell, typename BoxRow>
void TopKOp::Offer(const Cell& key, PartitionId source, BoxRow&& box_row) {
  // std::push_heap builds a max-heap; invert so the *weakest* row is at
  // the root (classic top-k min-heap for DESC queries).
  auto heap_cmp = [this](const HeapRow& a, const HeapRow& b) {
    return Weaker(b.row[order_column_], a.row[order_column_]);
  };
  if (static_cast<int64_t>(heap_.size()) < k_) {
    // The fill path is the only way a NaN key can ever enter the heap
    // (replacement requires strictly-better, which NaN never is);
    // flagging here therefore always precedes the first publication.
    if (key.type() == DataType::kFloat64 && std::isnan(key.float64_value())) {
      heap_has_nan_ = true;
    }
    heap_.push_back(HeapRow{box_row(), source});
    std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
  } else if (!heap_.empty() && Weaker(heap_.front().row[order_column_], key)) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
    heap_.back() = HeapRow{box_row(), source};
    std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
  } else {
    return;  // weaker than the current boundary
  }
  MaybePublishBoundary();
}

void TopKOp::ConsumeColumns() {
  ColumnBatch in;
  TableScanOp::MorselPayload payload;
  while (columnar_input_->NextColumns(&in, &payload)) {
    const ColumnVector& keys = in.column(order_column_);
    // The key cell is read in place; a row is boxed only when it enters
    // the heap.
    auto offer = [&](uint32_t r) {
      Offer(ColumnCell{&keys, r}, in.source(), [&] {
        Row row;
        in.AppendRowValues(r, &row);
        return row;
      });
    };
    if (payload != nullptr) {
      // Candidate replay: the worker already dropped every row the serial
      // heap would reject at its position; surviving candidates go through
      // the identical heap step in identical order.
      const auto* cands = static_cast<const TopKItemCandidates*>(payload.get());
      for (uint32_t r : cands->rows) offer(r);
    } else {
      const size_t n = in.num_rows();
      WithNullTest(keys, [&](auto is_null) {
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = in.row_index(i);
          if (is_null(r)) continue;  // NULL keys never qualify
          offer(r);
        }
      });
    }
  }
}

void TopKOp::ConsumeRows() {
  Batch in;
  while (input_->Next(&in)) {
    const bool track = in.has_source();
    for (size_t i = 0; i < in.rows.size(); ++i) {
      Row& row = in.rows[i];
      const Value& key = row[order_column_];
      if (key.is_null()) continue;  // NULL keys never qualify
      Offer(key, track ? in.source[i] : 0, [&] { return std::move(row); });
    }
  }
}

bool TopKOp::EmitHeap(Batch* out) {
  // Emit best-first.
  std::sort(heap_.begin(), heap_.end(),
            [this](const HeapRow& a, const HeapRow& b) {
              return Weaker(b.row[order_column_], a.row[order_column_]);
            });
  out->rows.clear();
  out->source.clear();
  for (auto& hr : heap_) {
    out->rows.push_back(std::move(hr.row));
    out->source.push_back(hr.source);
    if (std::find(contributing_.begin(), contributing_.end(), hr.source) ==
        contributing_.end()) {
      contributing_.push_back(hr.source);
    }
  }
  emitted_ = true;
  return !out->rows.empty();
}

bool TopKOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool TopKOp::NextInner(Batch* out) {
  if (emitted_) return false;
  // The heap consume is the pipeline break; one span covers it plus the
  // final best-first emit.
  ScopedSpan drain_span(trace_, "topk.drain", trace_parent_);
  if (columnar_input_ != nullptr) {
    ConsumeColumns();
  } else {
    ConsumeRows();
  }
  return EmitHeap(out);
}

}  // namespace snowprune
