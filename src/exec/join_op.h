#ifndef SNOWPRUNE_EXEC_JOIN_OP_H_
#define SNOWPRUNE_EXEC_JOIN_OP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/join_pruner.h"
#include "exec/operator.h"
#include "exec/scan_op.h"

namespace snowprune {

/// Build-once bucketed hash table for the join build side, replacing the
/// previous std::unordered_multimap. Two properties matter:
///
///   - *Deterministic probe order*: entries within a bucket are stored in
///     ascending insertion (build) order, so the matches a probe row emits
///     come out in build order — identical whether the (hash, index) pairs
///     were produced serially on the consumer or by parallel build stages
///     merged in scan-set order. (A node-based multimap's equal-range order
///     is an implementation accident; deterministic structure is what lets
///     the parallel build stay byte-identical to serial.)
///   - *Build-once construction*: the input is a flat entry vector, so
///     construction is a two-pass counting sort — O(n) and allocator-quiet.
class JoinHashTable {
 public:
  struct Entry {
    uint64_t hash;
    uint64_t index;  ///< Build-order ordinal (row locator) of the entry.
  };

  /// Builds from `entries` listed in build order.
  void Build(std::vector<Entry> entries);

  void Clear();

  size_t size() const { return slots_.size(); }

  /// Invokes fn(index) for every entry whose hash equals `hash`, in build
  /// order.
  template <typename Fn>
  void ForEachMatch(uint64_t hash, Fn&& fn) const {
    if (slots_.empty()) return;
    const size_t b = static_cast<size_t>(hash) & mask_;
    const uint32_t end = offsets_[b + 1];
    for (uint32_t i = offsets_[b]; i < end; ++i) {
      if (slots_[i].hash == hash) fn(static_cast<size_t>(slots_[i].index));
    }
  }

 private:
  size_t mask_ = 0;
  /// offsets_[b] .. offsets_[b+1] is bucket b's slice of slots_.
  std::vector<uint32_t> offsets_;
  std::vector<Entry> slots_;
};

/// Join variants. The engine always builds on the right child and probes
/// with the left child.
enum class JoinKind {
  kInner,
  kProbeOuter,  ///< Probe (left) side preserved: LEFT OUTER JOIN.
  kBuildOuter,  ///< Build (right) side preserved: RIGHT OUTER JOIN. Legal
                ///< target for TopK/LIMIT replication onto the build side
                ///< (§4.3, Figure 7c): every build row survives the join.
};

const char* ToString(JoinKind kind);

/// Hash join with §6 join pruning: the build phase summarizes all build-side
/// key values; at Open() the summary is "shipped" to the probe-side scan,
/// which drops micro-partitions whose key min/max cannot intersect it —
/// before they are loaded from storage. The summary is always a range set
/// within a 1 KiB budget; the other SummaryKinds exist for the §6
/// ablation bench, which builds summaries directly.
///
/// Data flow is unboxed end to end when a child is a table scan: the build
/// phase hashes typed key-column cells out of ColumnBatches (keeping the
/// batches and per-entry row locators instead of boxed rows), and the probe
/// phase consumes the probe scan's ColumnBatches directly — the selection
/// vector drives the per-row probes and only the *surviving* output rows
/// are ever boxed, at this operator's output boundary (the pipeline's
/// project/result boundary). A non-scan child delivers boxed rows; both
/// forms hash, compare and emit through the same per-row steps.
///
/// A parallel table-scan build child parallelizes the build phase: workers
/// hash each morsel's key cells and collect per-item summary partials
/// alongside the scan itself; the consumer merges partials in scan-set
/// order (so the BuildSummary — and the §6 pruning it drives — is
/// byte-identical to serial) and constructs the deterministic hash table
/// from the flat pairs.
class HashJoinOp : public Operator {
 public:
  /// `enable_partition_pruning` turns §6 summary pruning of the probe scan
  /// on (EngineConfig::enable_join_pruning).
  HashJoinOp(OperatorPtr probe, OperatorPtr build, size_t probe_key,
             size_t build_key, JoinKind kind, bool enable_partition_pruning);

  /// Planner hook: the probe-side scan to prune and their join-key column
  /// index in that scan's (table) schema.
  void AttachProbeScan(TableScanOp* scan, size_t scan_key_column) {
    probe_scan_ = scan;
    probe_scan_key_column_ = scan_key_column;
  }

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;
  const Schema& output_schema() const override { return schema_; }

 private:
  bool NextInner(Batch* out);

  /// Locator of one build-side row inside build_batches_ (columnar build).
  struct BuildRef {
    uint32_t batch;
    uint32_t row;
  };

  /// Number of build entries (either storage).
  size_t BuildSize() const {
    return build_columnar_ ? build_refs_.size() : build_rows_.size();
  }
  /// Does hash-table entry `entry`'s key equal `key`, a non-null cell
  /// source (a boxed Value or a probe ColumnCell)?
  template <typename Cell>
  bool EntryKeyEquals(const Cell& key, size_t entry) const;
  /// Appends entry `entry`'s full build row to `out` (boxing on demand).
  void AppendBuildValues(size_t entry, Row* out) const;
  /// Probes one row with its join key `key` (a cell source) and emits every
  /// match, or the NULL-padded row of a probe-outer join when none matched;
  /// `append_probe` boxes the probe-side columns into an output row.
  template <typename Cell, typename AppendProbe>
  void ProbeRow(const Cell& key, Batch* out, AppendProbe&& append_probe);

  /// The §6 summary shipped to the probe scan.
  static constexpr SummaryKind kSummaryKind = SummaryKind::kRangeSet;
  static constexpr size_t kSummaryBudgetBytes = 1024;

  OperatorPtr probe_;
  OperatorPtr build_;
  size_t probe_key_;
  size_t build_key_;
  JoinKind kind_;
  bool enable_partition_pruning_;
  Schema schema_;

  TableScanOp* probe_scan_ = nullptr;
  size_t probe_scan_key_column_ = 0;

  /// Boxed build storage (non-scan build child).
  std::vector<Row> build_rows_;
  /// Unboxed build storage (scan build child): the scan's surviving
  /// batches, kept alive for the query, plus per-entry row locators.
  std::vector<ColumnBatch> build_batches_;
  std::vector<BuildRef> build_refs_;
  bool build_columnar_ = false;
  /// Set when the probe child is a table scan: probe ColumnBatches
  /// directly instead of materialized rows.
  TableScanOp* probe_columnar_ = nullptr;

  std::vector<bool> build_matched_;
  JoinHashTable hash_table_;
  bool emitted_unmatched_build_ = false;
};

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_JOIN_OP_H_
