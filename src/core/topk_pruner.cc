#include "core/topk_pruner.h"

#include <algorithm>

#include "common/rng.h"

namespace snowprune {

const char* ToString(OrderStrategy strategy) {
  switch (strategy) {
    case OrderStrategy::kNone: return "none";
    case OrderStrategy::kRandom: return "random";
    case OrderStrategy::kFullSort: return "full-sort";
  }
  return "?";
}

const char* ToString(BoundaryInitMode mode) {
  switch (mode) {
    case BoundaryInitMode::kNone: return "none";
    case BoundaryInitMode::kKthMax: return "kth-max";
    case BoundaryInitMode::kCumulativeMin: return "cumulative-min";
    case BoundaryInitMode::kStricter: return "stricter";
  }
  return "?";
}

TopKPruner::TopKPruner(TopKPrunerConfig config, size_t order_column)
    : config_(config), order_column_(order_column) {}

bool TopKPruner::Stricter(const Value& candidate, const Value& current) const {
  int c = Value::Compare(candidate, current);
  return config_.descending ? c > 0 : c < 0;
}

ScanSet TopKPruner::Prepare(const Table& table, const ScanSet& scan_set,
                            const std::vector<PartitionId>& fully_matching) {
  // --- Processing order (§5.3). -------------------------------------------
  std::vector<PartitionId> order(scan_set.begin(), scan_set.end());
  switch (config_.order_strategy) {
    case OrderStrategy::kNone:
      break;
    case OrderStrategy::kRandom: {
      Rng rng(config_.shuffle_seed);
      rng.Shuffle(&order);
      break;
    }
    case OrderStrategy::kFullSort: {
      // DESC: largest max first; ASC: smallest min first. Partitions without
      // usable metadata sort last.
      auto sort_key = [&](PartitionId pid) -> std::optional<Value> {
        const ColumnStats& s = table.stats(pid, order_column_);
        if (!s.has_stats) return std::nullopt;
        const Value& v = config_.descending ? s.max : s.min;
        if (v.is_null()) return std::nullopt;
        return v;
      };
      std::stable_sort(order.begin(), order.end(),
                       [&](PartitionId a, PartitionId b) {
                         auto ka = sort_key(a), kb = sort_key(b);
                         if (!ka.has_value()) return false;
                         if (!kb.has_value()) return true;
                         int c = Value::Compare(*ka, *kb);
                         return config_.descending ? c > 0 : c < 0;
                       });
      break;
    }
  }

  // --- Upfront boundary initialization (§5.4). -----------------------------
  // Computed into a local and published under the lock at the end: no scan
  // workers exist yet, but the guarded members are only ever touched with
  // boundary_mutex_ held so the lock discipline stays uniform.
  std::optional<Value> init_boundary;
  // Through a GROUP BY (Figure 7d, the only shape that turns inclusive
  // updates off) the heap holds groups, not rows: k rows sharing one key
  // are one group, so only distinct key values count toward k.
  // k = 0 keeps no row, so no partition can bound one.
  const bool counts_groups = !config_.inclusive_updates;
  if (config_.k > 0 && config_.boundary_init != BoundaryInitMode::kNone &&
      !fully_matching.empty()) {
    // Candidate A: k-th strictest max (DESC) / min (ASC) over fully-matching
    // partitions — each of the k partitions contributes at least one row at
    // least as good as that value. For groups, the k-th strictest *distinct*
    // extreme: each is a real key value, so k of them are k groups.
    std::optional<Value> kth_extreme;
    {
      std::vector<Value> extremes;
      for (PartitionId pid : fully_matching) {
        const ColumnStats& s = table.stats(pid, order_column_);
        if (!s.has_stats) continue;
        const Value& v = config_.descending ? s.max : s.min;
        if (!v.is_null()) extremes.push_back(v);
      }
      std::sort(extremes.begin(), extremes.end(),
                [&](const Value& a, const Value& b) {
                  int c = Value::Compare(a, b);
                  return config_.descending ? c > 0 : c < 0;
                });
      if (counts_groups) {
        extremes.erase(std::unique(extremes.begin(), extremes.end(),
                                   [](const Value& a, const Value& b) {
                                     return Value::Compare(a, b) == 0;
                                   }),
                       extremes.end());
      }
      if (static_cast<int64_t>(extremes.size()) >= config_.k) {
        kth_extreme = extremes[static_cast<size_t>(config_.k) - 1];
      }
    }
    // Candidate B: sort fully-matching partitions by min (DESC) / max (ASC),
    // strictest first; the bound of the partition whose cumulative non-null
    // row count reaches k guarantees k qualifying rows at least that good.
    // Row counts are not group counts, so groups skip this candidate.
    std::optional<Value> cumulative_bound;
    if (!counts_groups) {
      struct Cand {
        Value bound;
        int64_t rows;
      };
      std::vector<Cand> cands;
      for (PartitionId pid : fully_matching) {
        const ColumnStats& s = table.stats(pid, order_column_);
        if (!s.has_stats || s.min.is_null()) continue;
        cands.push_back(
            {config_.descending ? s.min : s.max, s.row_count - s.null_count});
      }
      std::sort(cands.begin(), cands.end(), [&](const Cand& a, const Cand& b) {
        int c = Value::Compare(a.bound, b.bound);
        return config_.descending ? c > 0 : c < 0;
      });
      int64_t cum = 0;
      for (const Cand& c : cands) {
        cum += c.rows;
        if (cum >= config_.k) {
          cumulative_bound = c.bound;
          break;
        }
      }
    }
    if (config_.boundary_init == BoundaryInitMode::kKthMax) {
      init_boundary = kth_extreme;
    } else if (config_.boundary_init == BoundaryInitMode::kCumulativeMin) {
      init_boundary = cumulative_bound;
    } else {  // kStricter
      init_boundary = kth_extreme;
      if (cumulative_bound &&
          (!init_boundary || Stricter(*cumulative_bound, *init_boundary))) {
        init_boundary = cumulative_bound;
      }
    }
  }
  {
    MutexLock lock(&boundary_mutex_);
    boundary_ = std::move(init_boundary);
    inclusive_ = false;  // init boundaries must not skip ties (§5.4)
  }

  return ScanSet(std::move(order));
}

bool TopKPruner::ShouldSkip(const Table& table, PartitionId pid) const {
  const ColumnStats& s = table.stats(pid, order_column_);
  if (!s.has_stats) return false;  // no metadata, no pruning (§8.1)
  const Value& extreme = config_.descending ? s.max : s.min;
  if (extreme.is_null()) return true;  // all-NULL keys never qualify
  std::optional<Value> boundary;
  bool inclusive;
  {
    MutexLock lock(&boundary_mutex_);
    boundary = boundary_;
    inclusive = inclusive_;
  }
  if (!boundary) return false;
  int c = Value::Compare(extreme, *boundary);
  if (config_.descending) {
    return inclusive ? c <= 0 : c < 0;
  }
  return inclusive ? c >= 0 : c > 0;
}

void TopKPruner::UpdateBoundary(const Value& v) {
  if (v.is_null()) return;
  MutexLock lock(&boundary_mutex_);
  if (!boundary_ || Stricter(v, *boundary_) ||
      (!inclusive_ && config_.inclusive_updates &&
       Value::Compare(v, *boundary_) == 0)) {
    boundary_ = v;
    inclusive_ = config_.inclusive_updates;
  }
}

}  // namespace snowprune
