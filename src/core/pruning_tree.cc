#include "core/pruning_tree.h"

#include <algorithm>
#include <chrono>

namespace snowprune {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Internal tree node: a connective (And/Or) with reorderable children, or a
/// leaf holding a pruning predicate.
struct PruningTree::Node {
  enum class Kind { kAnd, kOr, kLeaf };
  Kind kind;
  ExprPtr leaf_expr;  // only for kLeaf
  std::vector<std::unique_ptr<Node>> children;
  PruneNodeMetrics metrics;
};

namespace {

std::unique_ptr<PruningTree::Node> BuildNode(const ExprPtr& expr);

std::unique_ptr<PruningTree::Node> BuildConnective(
    PruningTree::Node::Kind kind, const BoolConnectiveExpr& e) {
  auto node = std::make_unique<PruningTree::Node>();
  node->kind = kind;
  for (const auto& term : e.terms()) {
    node->children.push_back(BuildNode(term));
  }
  return node;
}

std::unique_ptr<PruningTree::Node> BuildNode(const ExprPtr& expr) {
  if (expr->kind() == ExprKind::kAnd) {
    return BuildConnective(PruningTree::Node::Kind::kAnd,
                           static_cast<const BoolConnectiveExpr&>(*expr));
  }
  if (expr->kind() == ExprKind::kOr) {
    return BuildConnective(PruningTree::Node::Kind::kOr,
                           static_cast<const BoolConnectiveExpr&>(*expr));
  }
  auto node = std::make_unique<PruningTree::Node>();
  node->kind = PruningTree::Node::Kind::kLeaf;
  node->leaf_expr = expr;
  return node;
}

}  // namespace

PruningTree::PruningTree(ExprPtr pruning_expr, PruningTreeConfig config)
    : root_(BuildNode(pruning_expr)), config_(config) {
  config_.reorder_interval = std::max<size_t>(config_.reorder_interval, 1);
}

PruningTree::~PruningTree() = default;
PruningTree::PruningTree(PruningTree&&) noexcept = default;
PruningTree& PruningTree::operator=(PruningTree&&) noexcept = default;

BoolRange PruningTree::Evaluate(const std::vector<ColumnStats>& stats) {
  ++evaluations_;
  const bool check =
      evaluations_ % static_cast<int64_t>(config_.reorder_interval) == 0;
  BoolRange result = EvalNode(root_.get(), stats, /*probe=*/check);
  if (check) {
    if (config_.enable_reorder) ReorderNode(root_.get());
    if (config_.enable_cutoff) CutoffNode(root_.get(), /*parent_is_and=*/true);
  }
  return result;
}

BoolRange PruningTree::EvalNode(Node* node,
                                const std::vector<ColumnStats>& stats,
                                bool probe) {
  if (node->metrics.disabled && !probe) {
    // A cut-off filter keeps every partition and can never establish
    // fully-matching: exactly BoolRange::Unknown().
    return BoolRange::Unknown();
  }
  if (node->kind == Node::Kind::kLeaf) {
    int64_t t0 = NowNs();
    BoolRange r = AnalyzePredicate(*node->leaf_expr, stats);
    node->metrics.time_ns += NowNs() - t0;
    ++node->metrics.evaluations;
    return r;
  }

  const bool is_and = node->kind == Node::Kind::kAnd;
  int64_t t0 = NowNs();
  BoolRange acc = BoolRange::Exactly(is_and);
  for (auto& child : node->children) {
    BoolRange r = EvalNode(child.get(), stats, probe);
    if (is_and) {
      if (!r.can_true) ++child->metrics.decisive;  // alone prunes the partition
      acc = AndRanges(acc, r);
      if (!acc.can_true) break;  // short-circuit: partition proven prunable
    } else {
      if (r.can_true) ++child->metrics.decisive;  // alone prevents pruning
      acc = OrRanges(acc, r);
      // Short-circuit once pruning is impossible *and* fully-matching is
      // already ruled out; otherwise later terms may still flip can_false.
      if (acc.can_true && acc.can_false) break;
    }
  }
  node->metrics.time_ns += NowNs() - t0;
  ++node->metrics.evaluations;
  return acc;
}

void PruningTree::ReorderNode(Node* node) {
  if (node->kind == Node::Kind::kLeaf) return;
  for (auto& child : node->children) ReorderNode(child.get());
  // Both connectives want their most decisive-per-nanosecond child first:
  // for AND that is the filter most likely to prune, for OR the one most
  // likely to short-circuit the disjunction (§3.2). Stable sort keeps the
  // heuristic initial order among unobserved children.
  std::stable_sort(node->children.begin(), node->children.end(),
                   [](const std::unique_ptr<Node>& a,
                      const std::unique_ptr<Node>& b) {
                     if (a->metrics.disabled != b->metrics.disabled) {
                       return b->metrics.disabled;  // disabled children last
                     }
                     double score_a =
                         a->metrics.DecisiveRate() / a->metrics.AvgTimeNs();
                     double score_b =
                         b->metrics.DecisiveRate() / b->metrics.AvgTimeNs();
                     return score_a > score_b;
                   });
}

void PruningTree::CutoffNode(Node* node, bool parent_is_and) {
  if (node->kind == Node::Kind::kLeaf) {
    // §3.2: only filters below an AND may be removed; removing an OR branch
    // would mark every partition as potentially matching and poison the
    // whole disjunction.
    if (!parent_is_and) return;
    // An enabled leaf is judged on a full observation window; a cut one on
    // its probes since the cut, so one decisive probe can bring it back.
    const int64_t needed =
        node->metrics.disabled
            ? 1
            : static_cast<int64_t>(config_.cutoff_min_observations);
    if (node->metrics.evaluations < needed) return;
    // The two §3.2 scenarios per partition: keep pruning (pay evaluation,
    // save the pruned-partition scans) vs stop (scan them all).
    const double cost_keep = node->metrics.AvgTimeNs();
    const double benefit_keep =
        node->metrics.DecisiveRate() * config_.partition_scan_cost_ns;
    const bool cut = cost_keep > benefit_keep;
    if (cut != node->metrics.disabled) {
      node->metrics = PruneNodeMetrics{};
      node->metrics.disabled = cut;
    }
    return;
  }
  const bool is_and = node->kind == Node::Kind::kAnd;
  for (auto& child : node->children) CutoffNode(child.get(), is_and);
}

namespace {

void CountLeaves(const PruningTree::Node* node, size_t* total, size_t* disabled);

void DebugNode(const PruningTree::Node* node, int depth, std::string* out);

}  // namespace

size_t PruningTree::disabled_leaves() const {
  size_t total = 0, disabled = 0;
  CountLeaves(root_.get(), &total, &disabled);
  return disabled;
}

size_t PruningTree::num_leaves() const {
  size_t total = 0, disabled = 0;
  CountLeaves(root_.get(), &total, &disabled);
  return total;
}

std::string PruningTree::DebugString() const {
  std::string out;
  DebugNode(root_.get(), 0, &out);
  return out;
}

namespace {

void CountLeaves(const PruningTree::Node* node, size_t* total,
                 size_t* disabled) {
  if (node->kind == PruningTree::Node::Kind::kLeaf) {
    ++*total;
    if (node->metrics.disabled) ++*disabled;
    return;
  }
  for (const auto& child : node->children) {
    CountLeaves(child.get(), total, disabled);
  }
}

void DebugNode(const PruningTree::Node* node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  switch (node->kind) {
    case PruningTree::Node::Kind::kAnd: out->append("AND"); break;
    case PruningTree::Node::Kind::kOr: out->append("OR"); break;
    case PruningTree::Node::Kind::kLeaf:
      out->append(node->leaf_expr->ToString());
      break;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  [evals=%lld decisive=%.2f avg_ns=%.0f%s]\n",
                static_cast<long long>(node->metrics.evaluations),
                node->metrics.DecisiveRate(), node->metrics.AvgTimeNs(),
                node->metrics.disabled ? " CUTOFF" : "");
  out->append(buf);
  for (const auto& child : node->children) {
    DebugNode(child.get(), depth + 1, out);
  }
}

void CollectLeafOrder(const PruningTree::Node* node,
                      std::vector<std::string>* out) {
  if (node->kind == PruningTree::Node::Kind::kLeaf) {
    out->push_back(node->leaf_expr->ToString());
    return;
  }
  for (const auto& child : node->children) CollectLeafOrder(child.get(), out);
}

}  // namespace

std::vector<std::string> PruningTree::LeafOrder() const {
  std::vector<std::string> out;
  CollectLeafOrder(root_.get(), &out);
  return out;
}

}  // namespace snowprune
