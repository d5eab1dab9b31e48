#include "exec/agg_op.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/trace.h"
#include "exec/profile.h"

namespace snowprune {

const char* ToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
    case AggFunc::kAvg: return "avg";
  }
  return "?";
}

namespace {

bool IsNaN(const Value& v) {
  return v.is_float64() && std::isnan(v.float64_value());
}

}  // namespace

bool HashAggregateOp::KeyLess::operator()(const Row& a, const Row& b) const {
  assert(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const bool an = a[i].is_null(), bn = b[i].is_null();
    if (an != bn) return an;  // NULL keys group together, sorting first
    if (an) continue;
    int c = CompareScalars(a[i], b[i]);
    if (c != 0) return c < 0;
    // CompareScalars ties a NaN with every number, which is no strict weak
    // order: NaN keys group together instead, sorting after every number.
    const bool a_nan = IsNaN(a[i]), b_nan = IsNaN(b[i]);
    if (a_nan != b_nan) return b_nan;
  }
  return false;
}

HashAggregateOp::HashAggregateOp(OperatorPtr input,
                                 std::vector<size_t> group_columns,
                                 std::vector<AggSpec> aggregates)
    : input_(std::move(input)),
      group_columns_(std::move(group_columns)),
      aggregates_(std::move(aggregates)) {
  std::vector<Field> fields;
  for (size_t col : group_columns_) {
    fields.push_back(input_->output_schema().field(col));
  }
  for (const auto& spec : aggregates_) {
    DataType type = DataType::kFloat64;
    if (spec.func == AggFunc::kCount) {
      type = DataType::kInt64;
    } else if (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax) {
      type = input_->output_schema().field(spec.column).type;
    }
    fields.push_back(Field{spec.name, type, /*nullable=*/true});
  }
  schema_ = Schema(std::move(fields));
}

HashAggregateOp::~HashAggregateOp() {
  // The worker-side morsel transform reads this operator's members
  // (group_columns_, aggregates_), which member-destruction order tears
  // down *before* input_ (and with it the scan's scheduler + workers).
  // Close() normally joins the workers first, but exception unwinding can
  // skip it — join here; TableScanOp::Close() is idempotent.
  if (scan_input_ != nullptr) scan_input_->Close();
}

void HashAggregateOp::EnableGroupLimit(size_t order_group_index,
                                       bool descending, int64_t k,
                                       TopKPruner* pruner) {
  assert(order_group_index < group_columns_.size());
  assert(pruner == nullptr || !pruner->config().inclusive_updates);
  group_limit_enabled_ = true;
  order_group_index_ = order_group_index;
  order_descending_ = descending;
  group_limit_k_ = k;
  pruner_ = pruner;
}

bool HashAggregateOp::AggsMergeExactly(const TableScanOp& scan) const {
  // Every intermediate double sum must stay an exactly-representable
  // integer (|sum| < 2^53); only then is accumulation associative and the
  // morsel-merge order guaranteed to reproduce serial results bit-for-bit.
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  for (const AggSpec& spec : aggregates_) {
    if (spec.func != AggFunc::kSum && spec.func != AggFunc::kAvg) continue;
    // Float inputs could differ in the last ulp under any reassociation.
    if (input_->output_schema().field(spec.column).type != DataType::kInt64) {
      return false;
    }
    // Bound the worst-case running |sum| from zone maps: if the scan's
    // partitions could push any prefix past 2^53, stay serial. (spec.column
    // indexes the scan's output schema, which is the table schema.)
    double bound = 0.0;
    const Table& table = *scan.table();
    for (PartitionId pid : scan.scan_set()) {
      const ColumnStats& s = table.stats(pid, spec.column);
      if (!s.has_stats) return false;  // §8.1 external file: no proof
      if (s.min.is_null()) continue;   // all-NULL column contributes 0
      double extreme =
          std::max(std::abs(s.min.AsDouble()), std::abs(s.max.AsDouble()));
      bound += extreme * static_cast<double>(s.row_count - s.null_count);
      if (bound >= kExactLimit) return false;
    }
  }
  return true;
}

void HashAggregateOp::Open() {
  groups_.clear();
  emitted_ = false;
  parallel_path_ = false;
  scan_input_ = nullptr;
  columnar_input_ = nullptr;
  auto* scan = dynamic_cast<TableScanOp*>(input_.get());
  // A scan input is consumed unboxed (NextColumns) unless the group-limit
  // shape (Figure 7d) is active — its boundary feedback filters and
  // publishes per row, which stays on the boxed path.
  if (scan != nullptr && !group_limit_enabled_) columnar_input_ = scan;
  // The group-limit shape also stays serial for fusion: its boundary
  // feedback depends on seeing rows in scan order. Likewise a scan with a
  // top-k pruner attached: pre-aggregated morsels cannot be un-accumulated
  // if the consumer-side boundary re-check would have dropped them.
  if (scan != nullptr && scan->parallel_enabled() &&
      !scan->has_topk_pruner() && !group_limit_enabled_ &&
      AggsMergeExactly(*scan)) {
    parallel_path_ = true;
    scan_input_ = scan;
    // Worker-side morsel reduction stage: columns never reach the consumer
    // thread; each loaded batch folds into the morsel's partial group map,
    // in scan-set order within the morsel (coarse morsels: the per-morsel
    // merge cost is a whole partial map).
    scan->set_morsel_stage(
        [this](MorselResult* morsel) {
          for (MorselItem& item : morsel->items) {
            if (!item.loaded) continue;
            if (morsel->payload == nullptr) {
              morsel->payload = std::make_shared<GroupMap>();
            }
            AccumulateColumns(static_cast<GroupMap*>(morsel->payload.get()),
                              item.batch);
            item.batch.Clear();
          }
        },
        /*coarse_morsels=*/true);
  }
  input_->Open();  // parallel scans start their scheduler here
}

namespace {

/// Folds a non-null cell into the running MIN or MAX `best`.
template <typename Cell>
void FoldExtreme(AggFunc func, const Cell& cell, Value* best) {
  if (!best->is_null()) {
    const int c = CompareScalars(cell, *best);
    if (func == AggFunc::kMin ? c >= 0 : c <= 0) return;
  }
  *best = BoxCell(cell);
}

}  // namespace

void HashAggregateOp::MergePartial(GroupMap* partial) {
  if (groups_.empty()) {
    // First partial (typically the largest share of the groups): adopt the
    // whole map instead of merging entry by entry.
    groups_ = std::move(*partial);
    return;
  }
  for (auto& [key, state] : *partial) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      groups_.emplace(key, std::move(state));
      continue;
    }
    GroupState& dst = it->second;
    dst.group_rows += state.group_rows;
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      dst.counts[i] += state.counts[i];
      dst.sums[i] += state.sums[i];
      const Value& v = state.min_max[i];
      if (!v.is_null()) FoldExtreme(aggregates_[i].func, v, &dst.min_max[i]);
    }
  }
}

HashAggregateOp::GroupState& HashAggregateOp::FindOrCreateGroup(
    GroupMap* groups, Row key, bool* created) {
  auto it = groups->find(key);
  if (it == groups->end()) {
    GroupState state;
    state.key = key;
    state.min_max.assign(aggregates_.size(), Value::Null());
    state.sums.assign(aggregates_.size(), 0.0);
    state.counts.assign(aggregates_.size(), 0);
    it = groups->emplace(std::move(key), std::move(state)).first;
    if (created != nullptr) *created = true;
  }
  return it->second;
}

namespace {

/// Unboxed equality of two physical rows of one column (NULLs compare
/// equal, matching the NULL grouping rule of HashAggregateOp::KeyLess).
bool ColumnRowsEqual(const ColumnVector& col, uint32_t a, uint32_t b) {
  const bool an = col.IsNull(a), bn = col.IsNull(b);
  if (an || bn) return an == bn;
  switch (col.type()) {
    case DataType::kInt64: return col.Int64At(a) == col.Int64At(b);
    case DataType::kFloat64: return col.Float64At(a) == col.Float64At(b);
    case DataType::kString: return col.StringAt(a) == col.StringAt(b);
    case DataType::kBool: return col.BoolAt(a) == col.BoolAt(b);
  }
  return false;
}

}  // namespace

bool HashAggregateOp::SameGroupKeys(const ColumnBatch& batch, uint32_t a,
                                    uint32_t b) const {
  for (size_t col : group_columns_) {
    if (!ColumnRowsEqual(batch.column(col), a, b)) return false;
  }
  return true;
}

template <typename CellOf>
void HashAggregateOp::Accumulate(GroupState* state, const CellOf& cell_of) {
  ++state->group_rows;
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggSpec& spec = aggregates_[i];
    if (spec.func == AggFunc::kCount) {
      ++state->counts[i];
      continue;
    }
    const auto& cell = cell_of(spec.column);
    if (cell.is_null()) continue;
    ++state->counts[i];
    switch (spec.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        state->sums[i] += cell.AsDouble();
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        FoldExtreme(spec.func, cell, &state->min_max[i]);
        break;
      case AggFunc::kCount:
        break;
    }
  }
}

void HashAggregateOp::AccumulateColumns(GroupMap* groups,
                                        const ColumnBatch& batch) {
  const size_t n = batch.num_rows();
  GroupState* state = nullptr;
  uint32_t prev_row = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = batch.row_index(i);
    // Group-key run detection: clustered/sorted inputs repeat the same key
    // for long stretches, so comparing unboxed against the previous row
    // skips key construction and the map lookup for every repeat.
    if (state == nullptr || !SameGroupKeys(batch, r, prev_row)) {
      Row key;
      key.reserve(group_columns_.size());
      for (size_t col : group_columns_) {
        key.push_back(batch.column(col).ValueAt(r));
      }
      state = &FindOrCreateGroup(groups, std::move(key));
    }
    prev_row = r;
    Accumulate(state,
               [&](size_t c) { return ColumnCell{&batch.column(c), r}; });
  }
}

Row HashAggregateOp::Finalize(const GroupState& state) const {
  Row out = state.key;
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    switch (aggregates_[i].func) {
      case AggFunc::kCount:
        out.push_back(Value(state.counts[i]));
        break;
      case AggFunc::kSum:
        out.push_back(state.counts[i] == 0 ? Value::Null()
                                           : Value(state.sums[i]));
        break;
      case AggFunc::kAvg:
        out.push_back(state.counts[i] == 0
                          ? Value::Null()
                          : Value(state.sums[i] /
                                  static_cast<double>(state.counts[i])));
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        out.push_back(state.min_max[i]);
        break;
    }
  }
  return out;
}

void HashAggregateOp::PublishGroupBoundary() {
  if (pruner_ == nullptr || group_limit_k_ <= 0 ||
      static_cast<int64_t>(groups_.size()) < group_limit_k_) {
    return;
  }
  // k-th strictest distinct group order-key value. NaN keys are left out:
  // Value::Compare cannot rank them.
  std::vector<Value> keys;
  keys.reserve(groups_.size());
  for (const auto& [key, state] : groups_) {
    const Value& v = key[order_group_index_];
    if (!v.is_null() && !IsNaN(v)) keys.push_back(v);
  }
  if (static_cast<int64_t>(keys.size()) < group_limit_k_) return;
  std::sort(keys.begin(), keys.end(), [&](const Value& a, const Value& b) {
    int c = Value::Compare(a, b);
    return order_descending_ ? c > 0 : c < 0;
  });
  pruner_->UpdateBoundary(keys[static_cast<size_t>(group_limit_k_) - 1]);
}

bool HashAggregateOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool HashAggregateOp::NextInner(Batch* out) {
  if (emitted_) return false;
  // Accumulate-everything-then-emit is the pipeline break; span it whole.
  ScopedSpan drain_span(trace_, "agg.drain", trace_parent_);
  if (parallel_path_) {
    TableScanOp::MorselPayload payload;
    while (scan_input_->NextPayload(&payload)) {
      if (payload != nullptr) {
        MergePartial(static_cast<GroupMap*>(payload.get()));
      }
    }
    return EmitGroups(out);
  }
  if (columnar_input_ != nullptr) {
    // The unboxed hot path: consume the scan's ColumnBatches directly
    // (serial, or parallel in-order delivery when fusion was not exact —
    // either way the accumulation order equals serial execution, so the
    // result is bit-identical).
    ColumnBatch columns;
    while (columnar_input_->NextColumns(&columns)) {
      AccumulateColumns(&groups_, columns);
    }
    return EmitGroups(out);
  }
  Batch in;
  while (input_->Next(&in)) {
    for (const Row& row : in.rows) {
      Row key;
      key.reserve(group_columns_.size());
      for (size_t col : group_columns_) key.push_back(row[col]);
      if (group_limit_enabled_ && pruner_ != nullptr) {
        // One boundary snapshot per row: the pruner's accessor locks, and
        // the stored boundary may tighten between calls.
        const std::optional<Value> boundary = pruner_->boundary();
        if (boundary.has_value()) {
          // A row strictly weaker than the group boundary can neither found
          // a top-k group nor feed one (its group key is its own).
          const Value& v = key[order_group_index_];
          if (!v.is_null()) {
            int c = Value::Compare(v, *boundary);
            if (order_descending_ ? c < 0 : c > 0) continue;
          }
        }
      }
      bool created = false;
      GroupState& state = FindOrCreateGroup(&groups_, std::move(key), &created);
      if (created && group_limit_enabled_) PublishGroupBoundary();
      Accumulate(&state, [&](size_t c) -> const Value& { return row[c]; });
    }
  }
  return EmitGroups(out);
}

bool HashAggregateOp::EmitGroups(Batch* out) {
  out->rows.clear();
  out->source.clear();
  std::vector<Row> result;
  result.reserve(groups_.size());
  for (const auto& [key, state] : groups_) result.push_back(Finalize(state));
  if (group_limit_enabled_) {
    std::stable_sort(result.begin(), result.end(),
                     [&](const Row& a, const Row& b) {
                       const Value& va = a[order_group_index_];
                       const Value& vb = b[order_group_index_];
                       if (va.is_null()) return false;
                       if (vb.is_null()) return true;
                       int c = Value::Compare(va, vb);
                       return order_descending_ ? c > 0 : c < 0;
                     });
    if (static_cast<int64_t>(result.size()) > group_limit_k_) {
      result.resize(static_cast<size_t>(group_limit_k_));
    }
  }
  out->rows = std::move(result);
  emitted_ = true;
  return !out->rows.empty();
}

}  // namespace snowprune
