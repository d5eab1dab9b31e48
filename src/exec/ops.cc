#include "exec/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <string_view>

#include "common/trace.h"
#include "exec/column_batch.h"
#include "exec/profile.h"
#include "exec/scan_op.h"
#include "expr/evaluator.h"

namespace snowprune {

namespace {

/// One partition's decorated, stable-sorted run produced by the sort's
/// worker stage. KeyT orders exactly like Value::Compare for the column's
/// type; NULL keys carry null=1 and sort last in either direction.
template <typename KeyT>
struct SortedRun {
  struct Entry {
    KeyT key;
    uint8_t null;
    uint32_t row;  ///< Physical row index within the partition.
  };
  std::vector<Entry> entries;
};

/// THE sort comparator, shared by the serial decorate-sort path and the
/// worker-side run builder so the two can never drift: NULLs last in either
/// direction, then `<` on the typed key. Works for any decorated entry type
/// exposing `.key` and `.null`.
template <typename Entry>
void StableSortDecorated(std::vector<Entry>* entries, bool desc) {
  std::stable_sort(entries->begin(), entries->end(),
                   [desc](const Entry& x, const Entry& y) {
                     if (x.null) return false;  // NULLs sort last
                     if (y.null) return true;
                     return desc ? y.key < x.key : x.key < y.key;
                   });
}

/// Sort-key readers, one per column type: each runs `body(key_at)` once,
/// where key_at(r) is row r's key, of a type that orders exactly like
/// Value::Compare for the column's type (string keys are views into the
/// immutable partition, valid for the life of the query). Int64 and string
/// layouts are decoded once per call, not per cell.
const auto kInt64Keys = [](const ColumnVector& c, auto&& body) {
  WithInt64s(c, body);
};
const auto kFloat64Keys = [](const ColumnVector& c, auto&& body) {
  body([&c](size_t r) { return c.Float64At(r); });
};
const auto kBoolKeys = [](const ColumnVector& c, auto&& body) {
  body([&c](size_t r) { return c.BoolAt(r); });
};
const auto kStringKeys = [](const ColumnVector& c, auto&& body) {
  WithStrings(c, body);
};

template <typename KeyT, typename WithKeys>
std::shared_ptr<void> BuildSortedRun(const ColumnBatch& batch, size_t column,
                                     bool desc, WithKeys with_keys) {
  auto run = std::make_shared<SortedRun<KeyT>>();
  const ColumnVector& col = batch.column(column);
  const size_t n = batch.num_rows();
  run->entries.reserve(n);
  with_keys(col, [&](auto key_at) {
    WithNullTest(col, [&](auto is_null) {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = batch.row_index(i);
        const bool null = is_null(r);
        run->entries.push_back(typename SortedRun<KeyT>::Entry{
            null ? KeyT{} : key_at(r), static_cast<uint8_t>(null), r});
      }
    });
  });
  StableSortDecorated(&run->entries, desc);
  return run;
}

/// Type dispatch for the worker stage.
std::shared_ptr<void> BuildSortedRunFor(DataType type, const ColumnBatch& batch,
                                        size_t column, bool desc) {
  switch (type) {
    case DataType::kInt64:
      return BuildSortedRun<int64_t>(batch, column, desc, kInt64Keys);
    case DataType::kFloat64: {
      // NaN order keys make `<` a non-strict-weak ordering: per-run sorting
      // plus a k-way merge is then NOT equivalent to one stable_sort over
      // the concatenated input, and the parallel output could diverge from
      // serial. Leave such partitions run-less — the consumer falls back to
      // the serial whole-input sort and byte-identity is preserved. A NULL
      // row's slot holds 0.0, so the null bitmap need not be read.
      const ColumnVector& col = batch.column(column);
      const size_t n = batch.num_rows();
      for (size_t i = 0; i < n; ++i) {
        if (std::isnan(col.Float64At(batch.row_index(i)))) return nullptr;
      }
      return BuildSortedRun<double>(batch, column, desc, kFloat64Keys);
    }
    case DataType::kBool:
      return BuildSortedRun<bool>(batch, column, desc, kBoolKeys);
    case DataType::kString:
      return BuildSortedRun<std::string_view>(batch, column, desc,
                                              kStringKeys);
  }
  return nullptr;
}

/// K-way merge of per-partition sorted runs into boxed output rows. Key
/// ties (and the all-NULL tail) break to the earlier run — runs arrive in
/// scan-set order, and entries within a run are already stable — so the
/// merged order equals the serial stable_sort over the concatenated input.
template <typename KeyT>
void MergeSortedRuns(const std::vector<ColumnBatch>& batches,
                     const std::vector<std::shared_ptr<void>>& runs,
                     bool desc, Batch* out) {
  using Run = SortedRun<KeyT>;
  struct Head {
    uint32_t run;
    uint32_t pos;
  };
  auto entries_of = [&](uint32_t run) -> const std::vector<typename Run::Entry>& {
    return static_cast<const Run*>(runs[run].get())->entries;
  };
  /// Is `a` strictly before `b` in output order?
  auto before = [&](const Head& a, const Head& b) {
    const auto& ea = entries_of(a.run)[a.pos];
    const auto& eb = entries_of(b.run)[b.pos];
    if (ea.null != eb.null) return eb.null != 0;  // non-NULL first
    if (!ea.null) {
      if (desc ? (eb.key < ea.key) : (ea.key < eb.key)) return true;
      if (desc ? (ea.key < eb.key) : (eb.key < ea.key)) return false;
    }
    return a.run < b.run;  // stable: earlier scan-set batch wins ties
  };
  auto heap_cmp = [&](const Head& a, const Head& b) { return before(b, a); };
  std::vector<Head> heads;
  size_t total = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const size_t n = entries_of(static_cast<uint32_t>(i)).size();
    total += n;
    if (n > 0) heads.push_back(Head{static_cast<uint32_t>(i), 0});
  }
  std::make_heap(heads.begin(), heads.end(), heap_cmp);
  out->rows.reserve(total);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), heap_cmp);
    Head h = heads.back();
    heads.pop_back();
    Row row;
    batches[h.run].AppendRowValues(entries_of(h.run)[h.pos].row, &row);
    out->rows.push_back(std::move(row));
    if (h.pos + 1 < entries_of(h.run).size()) {
      heads.push_back(Head{h.run, h.pos + 1});
      std::push_heap(heads.begin(), heads.end(), heap_cmp);
    }
  }
}

void MergeSortedRunsFor(DataType type, const std::vector<ColumnBatch>& batches,
                        const std::vector<std::shared_ptr<void>>& runs,
                        bool desc, Batch* out) {
  switch (type) {
    case DataType::kInt64:
      MergeSortedRuns<int64_t>(batches, runs, desc, out);
      return;
    case DataType::kFloat64:
      MergeSortedRuns<double>(batches, runs, desc, out);
      return;
    case DataType::kBool:
      MergeSortedRuns<bool>(batches, runs, desc, out);
      return;
    case DataType::kString:
      MergeSortedRuns<std::string_view>(batches, runs, desc, out);
      return;
  }
}

}  // namespace

ProjectOp::ProjectOp(OperatorPtr input, std::vector<ExprPtr> exprs,
                     std::vector<std::string> names)
    : input_(std::move(input)), exprs_(std::move(exprs)) {
  assert(exprs_.size() == names.size());
  std::vector<Field> fields;
  for (size_t i = 0; i < names.size(); ++i) {
    // Projected expressions are dynamically typed; record the column name
    // and a nominal type (refined by consumers via values, not the schema).
    DataType type = DataType::kFloat64;
    if (exprs_[i]->kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*exprs_[i]);
      if (ref.bound()) {
        type = input_->output_schema().field(ref.index()).type;
      }
    }
    fields.push_back(Field{names[i], type, /*nullable=*/true});
  }
  schema_ = Schema(std::move(fields));
}

bool ProjectOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool ProjectOp::NextInner(Batch* out) {
  Batch in;
  if (!input_->Next(&in)) return false;
  out->rows.clear();
  out->source.clear();
  const bool track = in.has_source();
  out->rows.reserve(in.rows.size());
  for (size_t i = 0; i < in.rows.size(); ++i) {
    Row projected;
    projected.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      projected.push_back(EvalScalar(*e, in.rows[i]));
    }
    out->rows.push_back(std::move(projected));
    if (track) out->source.push_back(in.source[i]);
  }
  return true;
}

LimitOp::LimitOp(OperatorPtr input, int64_t k, int64_t offset)
    : input_(std::move(input)), k_(k), offset_(offset) {}

void LimitOp::Open() {
  consumed_ = 0;
  input_->Open();
}

bool LimitOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool LimitOp::NextInner(Batch* out) {
  const int64_t target = offset_ + k_;
  if (consumed_ >= target) return false;
  Batch in;
  while (input_->Next(&in)) {
    out->rows.clear();
    out->source.clear();
    const bool track = in.has_source();
    for (size_t i = 0; i < in.rows.size() && consumed_ < target; ++i) {
      ++consumed_;
      if (consumed_ <= offset_) continue;  // discard the OFFSET prefix
      out->rows.push_back(std::move(in.rows[i]));
      if (track) out->source.push_back(in.source[i]);
    }
    if (!out->rows.empty() || consumed_ >= target) return true;
    // Empty batch (fully filtered partition): keep pulling.
  }
  return false;
}

SortOp::SortOp(OperatorPtr input, size_t order_column, bool descending)
    : input_(std::move(input)),
      order_column_(order_column),
      descending_(descending) {}

void SortOp::Open() {
  done_ = false;
  buffered_.rows.clear();
  buffered_.source.clear();
  auto* scan = dynamic_cast<TableScanOp*>(input_.get());
  if (scan != nullptr && scan->parallel_enabled()) {
    // Worker-side sorted-run stage: each partition's decorate + sort — the
    // O(n log n) share of the operator — happens on the worker that
    // scanned it. Captures by value only; no SortOp member is touched from
    // workers.
    const size_t col = order_column_;
    const bool desc = descending_;
    const DataType type = input_->output_schema().field(col).type;
    scan->set_morsel_stage([col, desc, type](MorselResult* morsel) {
      for (MorselItem& item : morsel->items) {
        if (!item.loaded) continue;
        item.payload = BuildSortedRunFor(type, item.batch, col, desc);
      }
    });
  }
  input_->Open();
}

bool SortOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool SortOp::NextInner(Batch* out) {
  if (done_) return false;
  // The whole pipeline-breaking drain (buffer input, sort, box) happens on
  // this first call — one span covers it.
  ScopedSpan drain_span(trace_, "sort.drain", trace_parent_);
  if (auto* scan = dynamic_cast<TableScanOp*>(input_.get())) {
    // Columnar sort: buffer the scan's ColumnBatches (borrowed partitions,
    // alive for the query) and stable-sort an index permutation over the
    // unboxed order-key cells; rows are boxed once, in output order, at
    // this pipeline-breaker's boundary. The permutation entries are
    // decorated with the typed key (decorate-sort-undecorate), so the
    // comparator never chases batch/column indirections. Same comparator
    // semantics as the boxed path (NULLs last either direction) on the
    // same input order, so the output is byte-identical.
    std::vector<ColumnBatch> batches;
    std::vector<std::shared_ptr<void>> runs;  // aligned with batches
    bool all_runs = true;
    ColumnBatch cb;
    TableScanOp::MorselPayload payload;
    while (scan->NextColumns(&cb, &payload)) {
      all_runs = all_runs && payload != nullptr;
      batches.push_back(std::move(cb));
      runs.push_back(std::move(payload));
    }
    if (all_runs && !batches.empty()) {
      // Pipeline-parallel path: workers pre-sorted every partition; only
      // the k-way merge (and output boxing) remains on the consumer.
      out->rows.clear();
      out->source.clear();
      MergeSortedRunsFor(input_->output_schema().field(order_column_).type,
                         batches, runs, descending_, out);
      done_ = true;
      return !out->rows.empty();
    }
    size_t total = 0;
    for (const ColumnBatch& b : batches) total += b.num_rows();

    auto sort_typed = [&](auto null_key, auto with_keys) {
      using KeyT = decltype(null_key);
      struct Entry {
        KeyT key;
        uint8_t null;
        uint32_t batch;
        uint32_t row;  ///< Physical row index within the partition.
      };
      std::vector<Entry> order;
      order.reserve(total);
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const ColumnVector& col = batches[bi].column(order_column_);
        const size_t n = batches[bi].num_rows();
        with_keys(col, [&](auto key_at) {
          WithNullTest(col, [&](auto is_null) {
            for (size_t i = 0; i < n; ++i) {
              const uint32_t r = batches[bi].row_index(i);
              const bool null = is_null(r);
              order.push_back(Entry{null ? null_key : key_at(r),
                                    static_cast<uint8_t>(null),
                                    static_cast<uint32_t>(bi), r});
            }
          });
        });
      }
      StableSortDecorated(&order, descending_);
      out->rows.clear();
      out->source.clear();
      out->rows.reserve(order.size());
      for (const Entry& e : order) {
        Row row;
        batches[e.batch].AppendRowValues(e.row, &row);
        out->rows.push_back(std::move(row));
      }
    };

    switch (input_->output_schema().field(order_column_).type) {
      case DataType::kInt64: sort_typed(int64_t{0}, kInt64Keys); break;
      case DataType::kFloat64: sort_typed(0.0, kFloat64Keys); break;
      case DataType::kBool: sort_typed(false, kBoolKeys); break;
      case DataType::kString:
        sort_typed(std::string_view(), kStringKeys);
        break;
    }
    done_ = true;
    return !out->rows.empty();
  }
  Batch in;
  while (input_->Next(&in)) {
    for (auto& row : in.rows) buffered_.rows.push_back(std::move(row));
  }
  // NULL order keys sort last regardless of direction (and are excluded
  // from top-k results by the TopK operator; SortOp keeps them for
  // completeness).
  std::stable_sort(buffered_.rows.begin(), buffered_.rows.end(),
                   [&](const Row& a, const Row& b) {
                     const Value& va = a[order_column_];
                     const Value& vb = b[order_column_];
                     if (va.is_null()) return false;
                     if (vb.is_null()) return true;
                     int c = Value::Compare(va, vb);
                     return descending_ ? c > 0 : c < 0;
                   });
  *out = std::move(buffered_);
  buffered_ = Batch{};
  done_ = true;
  return !out->rows.empty();
}

}  // namespace snowprune
