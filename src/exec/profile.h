#ifndef SNOWPRUNE_EXEC_PROFILE_H_
#define SNOWPRUNE_EXEC_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pruning_stats.h"

namespace snowprune {

/// One plan operator's runtime accounting — the per-node row of an
/// EXPLAIN ANALYZE report. `pruning` is set only on source nodes (table
/// scan, shard gather source), once the query finished: it is a copy of
/// that scan's pruning ledger (see ScanSource). The query's PruningStats
/// is the sum of the same ledgers, so summing `pruning` over the tree
/// reconciles exactly (DCHECK-enforced by the engine).
struct ProfileNode {
  std::string name;    ///< Operator kind, e.g. "TopK", "Scan".
  std::string detail;  ///< Operator parameters, e.g. "lineitem", "k=10".
  int64_t rows_out = 0;
  int64_t batches = 0;
  int64_t ns = 0;  ///< Wall ns inside this operator's Next (children incl.).
  PruningStats pruning;
  std::vector<ProfileNode*> children;  ///< Non-owning; owned by the profile.
};

/// The per-query operator profile, assembled at compile time (one node per
/// plan operator, linked into the plan tree) and filled during execution by
/// the operators' instrumented Next wrappers. Built only for traced
/// queries; untraced queries carry a null profile and skip all metering.
class QueryProfile {
 public:
  QueryProfile() = default;
  QueryProfile(const QueryProfile&) = delete;
  QueryProfile& operator=(const QueryProfile&) = delete;

  /// Creates a node owned by this profile. Callers link parents/children.
  ProfileNode* NewNode(std::string name, std::string detail = std::string());

  /// Sum of every node's pruning counters — must equal the query's
  /// PruningStats for a fully profiled plan.
  PruningStats SumPruning() const;

  /// EXPLAIN ANALYZE text: one line per operator (rows, batches, time),
  /// with per-level pruning counts under each source node.
  std::string ToText() const;
  std::string ToJson() const;

  ProfileNode* root = nullptr;
  /// Per-query pipeline stage-task count (from the trace's atomic counter).
  int64_t stage_tasks = 0;

 private:
  std::vector<std::unique_ptr<ProfileNode>> nodes_;
};

/// Times one `Next`-shaped call into `node`. `next` produces the batch;
/// `rows` reports how many rows the produced batch carries (only consulted
/// when `next` returned true). Operators call this from a thin wrapper
/// whose first instruction is the `profile_ == nullptr` fast-path test, so
/// untraced queries never reach the clock.
template <typename NextFn, typename RowsFn>
inline bool ProfiledNext(ProfileNode* node, NextFn&& next, RowsFn&& rows) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = next();
  node->ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  if (ok) {
    ++node->batches;
    node->rows_out += rows();
  }
  return ok;
}

}  // namespace snowprune

#endif  // SNOWPRUNE_EXEC_PROFILE_H_
