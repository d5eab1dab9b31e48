#include "exec/join_op.h"

#include "common/trace.h"
#include "exec/profile.h"

namespace snowprune {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// JoinHashTable
// ---------------------------------------------------------------------------

void JoinHashTable::Clear() {
  mask_ = 0;
  offsets_.clear();
  slots_.clear();
}

void JoinHashTable::Build(std::vector<Entry> entries) {
  Clear();
  if (entries.empty()) return;
  const size_t num_buckets = NextPow2(entries.size());
  mask_ = num_buckets - 1;
  offsets_.assign(num_buckets + 1, 0);
  slots_.resize(entries.size());
  // Two-pass counting sort by bucket; iterating in build order makes each
  // bucket's slice ascend in insertion order.
  for (const Entry& e : entries) {
    ++offsets_[(static_cast<size_t>(e.hash) & mask_) + 1];
  }
  for (size_t b = 1; b < offsets_.size(); ++b) offsets_[b] += offsets_[b - 1];
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Entry& e : entries) {
    slots_[cursor[static_cast<size_t>(e.hash) & mask_]++] = e;
  }
}

const char* ToString(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner: return "inner";
    case JoinKind::kProbeOuter: return "probe-outer";
    case JoinKind::kBuildOuter: return "build-outer";
  }
  return "?";
}

namespace {

/// One partition's worker-side build partial: the key hash of every
/// non-null key row (in row order) and a summary partial over the same
/// rows in the same order. Produced by the build scan's pipeline stage,
/// consumed — in scan-set order — by the consumer's build loop.
struct JoinBuildItemPartial {
  std::vector<uint64_t> hashes;
  SummaryBuilder summary;
};

}  // namespace

HashJoinOp::HashJoinOp(OperatorPtr probe, OperatorPtr build, size_t probe_key,
                       size_t build_key, JoinKind kind,
                       bool enable_partition_pruning)
    : probe_(std::move(probe)),
      build_(std::move(build)),
      probe_key_(probe_key),
      build_key_(build_key),
      kind_(kind),
      enable_partition_pruning_(enable_partition_pruning) {
  std::vector<Field> fields = probe_->output_schema().fields();
  for (const auto& f : build_->output_schema().fields()) fields.push_back(f);
  schema_ = Schema(std::move(fields));
}

void HashJoinOp::Open() {
  // One span over the whole pipeline-breaking build phase: drain build
  // side, construct the hash table, build + ship the §6 summary.
  ScopedSpan build_span(trace_, "join.build", trace_parent_);
  build_rows_.clear();
  build_batches_.clear();
  build_refs_.clear();
  build_matched_.clear();
  hash_table_.Clear();
  emitted_unmatched_build_ = false;
  build_columnar_ = false;
  probe_columnar_ = nullptr;

  // --- Build phase: drain the build side, hash it, summarize it (§6.1
  // step 1). NULL keys never participate in an equi-join. The hash table
  // is constructed once from flat (hash, entry) pairs collected in build
  // order, so serial and parallel builds produce the same structure.
  auto* build_scan = dynamic_cast<TableScanOp*>(build_.get());
  if (build_scan != nullptr && build_scan->parallel_enabled()) {
    // Per-worker build stage: hash each partition's key cells and collect
    // a summary partial while the morsel is still on the worker — the
    // consumer is left with the merge (append partials in scan-set order)
    // and the entry bookkeeping.
    const size_t key = build_key_;
    build_scan->set_morsel_stage([key](MorselResult* morsel) {
      for (MorselItem& item : morsel->items) {
        if (!item.loaded) continue;
        auto partial = std::make_shared<JoinBuildItemPartial>();
        const ColumnVector& keys = item.batch.column(key);
        const size_t n = item.batch.num_rows();
        WithNullTest(keys, [&](auto is_null) {
          for (size_t i = 0; i < n; ++i) {
            const uint32_t r = item.batch.row_index(i);
            if (is_null(r)) continue;
            partial->summary.Add(keys.ValueAt(r));
            partial->hashes.push_back(HashScalar(ColumnCell{&keys, r}));
          }
        });
        item.payload = std::move(partial);
      }
    });
  }
  build_->Open();
  SummaryBuilder summary_builder;
  std::vector<JoinHashTable::Entry> entries;
  if (build_scan != nullptr) {
    // Unboxed build: hash typed key cells straight out of the scan's
    // ColumnBatches; entries are (batch, row) locators into the retained
    // batches, so no build row is boxed until it appears in an output row.
    build_columnar_ = true;
    ColumnBatch batch;
    TableScanOp::MorselPayload payload;
    while (build_scan->NextColumns(&batch, &payload)) {
      const auto bidx = static_cast<uint32_t>(build_batches_.size());
      const ColumnVector& keys = batch.column(build_key_);
      const size_t n = batch.num_rows();
      // A worker-prepared partial (parallel build): merge its summary
      // exactly (value order == scan-set row order == serial order) and zip
      // its precomputed hashes back onto the non-null rows. Without one,
      // summarize and hash here.
      auto* partial = static_cast<JoinBuildItemPartial*>(payload.get());
      if (partial != nullptr) {
        summary_builder.Append(std::move(partial->summary));
      }
      size_t next_hash = 0;
      WithNullTest(keys, [&](auto is_null) {
        for (size_t i = 0; i < n; ++i) {
          const uint32_t r = batch.row_index(i);
          if (!is_null(r)) {
            if (partial != nullptr) {
              entries.push_back(JoinHashTable::Entry{
                  partial->hashes[next_hash++], build_refs_.size()});
            } else {
              summary_builder.Add(keys.ValueAt(r));
              entries.push_back(JoinHashTable::Entry{
                  HashScalar(ColumnCell{&keys, r}), build_refs_.size()});
            }
          }
          build_refs_.push_back(BuildRef{bidx, r});
        }
      });
      build_batches_.push_back(std::move(batch));
    }
  } else {
    Batch batch;
    while (build_->Next(&batch)) {
      for (auto& row : batch.rows) {
        const Value& key = row[build_key_];
        if (!key.is_null()) {
          summary_builder.Add(key);
          entries.push_back(
              JoinHashTable::Entry{HashValue(key), build_rows_.size()});
        }
        build_rows_.push_back(std::move(row));
      }
    }
  }
  build_->Close();
  build_matched_.assign(BuildSize(), false);
  build_span.AnnotateInt("build_rows", static_cast<int64_t>(BuildSize()));
  hash_table_.Build(std::move(entries));

  // --- Ship the summary to the probe side (§6.1 steps 2-4).
  if (enable_partition_pruning_ && probe_scan_ != nullptr) {
    probe_scan_->ApplyJoinSummary(
        *summary_builder.Build(kSummaryKind, kSummaryBudgetBytes),
        probe_scan_key_column_);
  }

  probe_->Open();
  probe_columnar_ = dynamic_cast<TableScanOp*>(probe_.get());
}

template <typename Cell>
bool HashJoinOp::EntryKeyEquals(const Cell& key, size_t entry) const {
  if (build_columnar_) {
    const BuildRef& ref = build_refs_[entry];
    return ScalarsEqual(
        key, ColumnCell{&build_batches_[ref.batch].column(build_key_), ref.row});
  }
  return ScalarsEqual(key, build_rows_[entry][build_key_]);
}

void HashJoinOp::AppendBuildValues(size_t entry, Row* out) const {
  if (build_columnar_) {
    const BuildRef& ref = build_refs_[entry];
    build_batches_[ref.batch].AppendRowValues(ref.row, out);
    return;
  }
  const Row& row = build_rows_[entry];
  out->insert(out->end(), row.begin(), row.end());
}

template <typename Cell, typename AppendProbe>
void HashJoinOp::ProbeRow(const Cell& key, Batch* out,
                          AppendProbe&& append_probe) {
  bool matched = false;
  // Matches come out in build order (JoinHashTable buckets ascend by
  // insertion order), so the emitted row order is deterministic and equal
  // under serial and parallel builds. NULL keys never match.
  if (!key.is_null()) {
    hash_table_.ForEachMatch(HashScalar(key), [&](size_t entry) {
      if (!EntryKeyEquals(key, entry)) return;
      matched = true;
      build_matched_[entry] = true;
      Row joined;
      joined.reserve(schema_.num_columns());
      append_probe(&joined);
      AppendBuildValues(entry, &joined);
      out->rows.push_back(std::move(joined));
    });
  }
  if (!matched && kind_ == JoinKind::kProbeOuter) {
    Row joined;
    joined.reserve(schema_.num_columns());
    append_probe(&joined);
    joined.resize(schema_.num_columns());  // NULL build columns
    out->rows.push_back(std::move(joined));
  }
}

bool HashJoinOp::Next(Batch* out) {
  if (profile_ == nullptr) return NextInner(out);
  return ProfiledNext(
      profile_, [&] { return NextInner(out); },
      [&] { return static_cast<int64_t>(out->rows.size()); });
}

bool HashJoinOp::NextInner(Batch* out) {
  if (probe_columnar_ != nullptr) {
    // Columnar probe: the scan's selection vector drives the per-row
    // probes; only surviving output rows are boxed, here at the join's
    // output boundary.
    ColumnBatch in;
    while (probe_columnar_->NextColumns(&in)) {
      out->rows.clear();
      out->source.clear();
      const ColumnVector& keys = in.column(probe_key_);
      for (size_t i = 0; i < in.num_rows(); ++i) {
        const uint32_t r = in.row_index(i);
        ProbeRow(ColumnCell{&keys, r}, out,
                 [&](Row* joined) { in.AppendRowValues(r, joined); });
      }
      return true;
    }
  } else {
    Batch in;
    while (probe_->Next(&in)) {
      out->rows.clear();
      out->source.clear();
      for (const Row& probe_row : in.rows) {
        ProbeRow(probe_row[probe_key_], out, [&](Row* joined) {
          joined->insert(joined->end(), probe_row.begin(), probe_row.end());
        });
      }
      return true;
    }
  }

  if (kind_ == JoinKind::kBuildOuter && !emitted_unmatched_build_) {
    emitted_unmatched_build_ = true;
    out->rows.clear();
    out->source.clear();
    for (size_t i = 0; i < BuildSize(); ++i) {
      if (build_matched_[i]) continue;
      Row joined(probe_->output_schema().num_columns());  // NULL probe side
      joined.reserve(schema_.num_columns());
      AppendBuildValues(i, &joined);
      out->rows.push_back(std::move(joined));
    }
    return !out->rows.empty();
  }
  return false;
}

void HashJoinOp::Close() { probe_->Close(); }

}  // namespace snowprune
