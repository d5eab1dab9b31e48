#include "exec/plan.h"

#include <cstdio>

namespace snowprune {

namespace {

PlanPtr MakeNode(PlanNode::Kind kind) {
  auto node = std::make_shared<PlanNode>();
  node->kind = kind;
  return node;
}

/// Expr::ToString prints floats with six significant digits and string
/// literals unescaped, so two predicates can render alike and still select
/// different rows. The fingerprint keys the predicate cache, so it appends
/// every float literal's exact value (hex float) and every string literal's
/// length, in tree order; with the lengths known the rendering parses back
/// one way only.
void AppendExactLiterals(const Expr& expr, std::string* out) {
  auto append_string = [out](const std::string& s) {
    *out += std::to_string(s.size()) + ";";
  };
  auto append = [out, &append_string](const Value& v) {
    if (v.is_string()) {
      append_string(v.string_value());
    } else if (v.is_float64()) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%a;", v.float64_value());
      *out += buf;
    }
  };
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      append(static_cast<const LiteralExpr&>(expr).value());
      break;
    case ExprKind::kInList:
      for (const Value& v : static_cast<const InListExpr&>(expr).values()) {
        append(v);
      }
      break;
    case ExprKind::kLike:
      append_string(static_cast<const LikeExpr&>(expr).pattern());
      break;
    case ExprKind::kStartsWith:
      append_string(static_cast<const StartsWithExpr&>(expr).prefix());
      break;
    default:
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    AppendExactLiterals(*child, out);
  }
}

}  // namespace

PlanPtr ScanPlan(std::string table, ExprPtr predicate) {
  PlanPtr node = MakeNode(PlanNode::Kind::kScan);
  node->table = std::move(table);
  node->predicate = std::move(predicate);
  return node;
}

PlanPtr ProjectPlan(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<std::string> names) {
  PlanPtr node = MakeNode(PlanNode::Kind::kProject);
  node->child = std::move(child);
  node->exprs = std::move(exprs);
  node->names = std::move(names);
  return node;
}

PlanPtr LimitPlan(PlanPtr child, int64_t k, int64_t offset) {
  PlanPtr node = MakeNode(PlanNode::Kind::kLimit);
  node->child = std::move(child);
  node->limit_k = k;
  node->limit_offset = offset;
  return node;
}

PlanPtr TopKPlan(PlanPtr child, std::string order_column, bool descending,
                 int64_t k) {
  PlanPtr node = MakeNode(PlanNode::Kind::kTopK);
  node->child = std::move(child);
  node->order_column = std::move(order_column);
  node->descending = descending;
  node->limit_k = k;
  return node;
}

PlanPtr JoinPlan(PlanPtr probe, PlanPtr build, std::string left_key,
                 std::string right_key, JoinKind kind) {
  PlanPtr node = MakeNode(PlanNode::Kind::kJoin);
  node->left = std::move(probe);
  node->right = std::move(build);
  node->left_key = std::move(left_key);
  node->right_key = std::move(right_key);
  node->join_kind = kind;
  return node;
}

PlanPtr AggregatePlan(PlanPtr child, std::vector<std::string> group_columns,
                      std::vector<AggPlanSpec> aggregates) {
  PlanPtr node = MakeNode(PlanNode::Kind::kAggregate);
  node->child = std::move(child);
  node->group_columns = std::move(group_columns);
  node->aggregates = std::move(aggregates);
  return node;
}

PlanPtr SortPlan(PlanPtr child, std::string order_column, bool descending) {
  PlanPtr node = MakeNode(PlanNode::Kind::kSort);
  node->child = std::move(child);
  node->order_column = std::move(order_column);
  node->descending = descending;
  return node;
}

std::string PlanNode::Fingerprint() const {
  std::string s;
  switch (kind) {
    case Kind::kScan:
      s = "Scan(" + table;
      if (predicate) {
        s += ", " + predicate->ToString();
        std::string exact;
        AppendExactLiterals(*predicate, &exact);
        if (!exact.empty()) s += " #" + exact;
      }
      s += ")";
      break;
    case Kind::kProject: {
      s = "Project(";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) s += ", ";
        s += exprs[i]->ToString() + " AS " + names[i];
      }
      s += ")[" + child->Fingerprint() + "]";
      break;
    }
    case Kind::kLimit:
      s = "Limit(" + std::to_string(limit_k) + "," +
          std::to_string(limit_offset) + ")[" + child->Fingerprint() + "]";
      break;
    case Kind::kTopK:
      s = "TopK(" + order_column + (descending ? " DESC" : " ASC") + ", " +
          std::to_string(limit_k) + ")[" + child->Fingerprint() + "]";
      break;
    case Kind::kSort:
      s = "Sort(" + order_column + (descending ? " DESC" : " ASC") + ")[" +
          child->Fingerprint() + "]";
      break;
    case Kind::kJoin:
      s = std::string("Join(") + ToString(join_kind) + ", " + left_key + "=" +
          right_key + ")[" + left->Fingerprint() + ", " + right->Fingerprint() +
          "]";
      break;
    case Kind::kAggregate: {
      s = "Agg(by=";
      for (size_t i = 0; i < group_columns.size(); ++i) {
        if (i > 0) s += ",";
        s += group_columns[i];
      }
      s += "; ";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) s += ",";
        s += std::string(ToString(aggregates[i].func)) + "(" +
             aggregates[i].column + ")";
      }
      s += ")[" + child->Fingerprint() + "]";
      break;
    }
  }
  return s;
}

}  // namespace snowprune
