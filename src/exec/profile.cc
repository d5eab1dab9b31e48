#include "exec/profile.h"

#include <functional>
#include <sstream>

namespace snowprune {

namespace {

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') *out << '\\';
    *out << c;
  }
  *out << '"';
}

bool HasPruning(const ProfileNode& node) {
  const PruningStats& p = node.pruning;
  return p.total_partitions != 0 || p.scanned_partitions != 0 ||
         p.shards_total != 0 || p.TotalPruned() != 0;
}

}  // namespace

ProfileNode* QueryProfile::NewNode(std::string name, std::string detail) {
  nodes_.push_back(std::make_unique<ProfileNode>());
  ProfileNode* node = nodes_.back().get();
  node->name = std::move(name);
  node->detail = std::move(detail);
  return node;
}

PruningStats QueryProfile::SumPruning() const {
  // The node pool holds every node exactly once, so a flat sum equals a
  // tree walk — and also covers nodes a compile error left unlinked.
  PruningStats sum;
  for (const auto& node : nodes_) sum.Merge(node->pruning);
  return sum;
}

std::string QueryProfile::ToText() const {
  std::ostringstream out;
  std::function<void(const ProfileNode*, int)> render =
      [&](const ProfileNode* node, int depth) {
        for (int i = 0; i < depth; ++i) out << "  ";
        out << node->name;
        if (!node->detail.empty()) out << ' ' << node->detail;
        out << "  (rows=" << node->rows_out << " batches=" << node->batches
            << " time=" << static_cast<double>(node->ns) / 1e6 << "ms)\n";
        if (HasPruning(*node)) {
          const PruningStats& p = node->pruning;
          for (int i = 0; i < depth + 1; ++i) out << "  ";
          // All five per-partition levels, always — a 0 is a statement.
          out << "pruned: cache=" << p.pruned_by_cache
              << " filter=" << p.pruned_by_filter
              << " limit=" << p.pruned_by_limit << " join=" << p.pruned_by_join
              << " topk=" << p.pruned_by_topk
              << " | scanned " << p.scanned_partitions << "/"
              << p.total_partitions << " partitions, " << p.scanned_rows
              << " rows";
          if (p.speculative_loads > 0) {
            out << ", speculative=" << p.speculative_loads;
          }
          out << '\n';
          if (p.shards_total > 0) {
            for (int i = 0; i < depth + 1; ++i) out << "  ";
            out << "shards: pruned " << p.shards_pruned << "/"
                << p.shards_total << '\n';
          }
        }
        for (const ProfileNode* child : node->children) {
          render(child, depth + 1);
        }
      };
  if (root != nullptr) render(root, 0);
  out << "pipeline: stage_tasks=" << stage_tasks << '\n';
  return out.str();
}

std::string QueryProfile::ToJson() const {
  std::ostringstream out;
  std::function<void(const ProfileNode*)> render = [&](const ProfileNode*
                                                           node) {
    out << "{\"name\":";
    AppendJsonString(&out, node->name);
    if (!node->detail.empty()) {
      out << ",\"detail\":";
      AppendJsonString(&out, node->detail);
    }
    out << ",\"rows_out\":" << node->rows_out
        << ",\"batches\":" << node->batches << ",\"ns\":" << node->ns;
    if (HasPruning(*node)) {
      const PruningStats& p = node->pruning;
      out << ",\"pruning\":{\"total_partitions\":" << p.total_partitions
          << ",\"pruned_by_cache\":" << p.pruned_by_cache
          << ",\"pruned_by_filter\":" << p.pruned_by_filter
          << ",\"pruned_by_limit\":" << p.pruned_by_limit
          << ",\"pruned_by_join\":" << p.pruned_by_join
          << ",\"pruned_by_topk\":" << p.pruned_by_topk
          << ",\"scanned_partitions\":" << p.scanned_partitions
          << ",\"scanned_rows\":" << p.scanned_rows
          << ",\"speculative_loads\":" << p.speculative_loads
          << ",\"shards_total\":" << p.shards_total
          << ",\"shards_pruned\":" << p.shards_pruned << '}';
    }
    out << ",\"children\":[";
    for (size_t i = 0; i < node->children.size(); ++i) {
      if (i > 0) out << ',';
      render(node->children[i]);
    }
    out << "]}";
  };
  out << "{\"stage_tasks\":" << stage_tasks << ",\"plan\":";
  if (root != nullptr) {
    render(root);
  } else {
    out << "null";
  }
  out << '}';
  return out.str();
}

}  // namespace snowprune
