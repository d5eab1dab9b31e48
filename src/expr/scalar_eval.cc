#include "expr/evaluator.h"

#include <cassert>

#include "expr/like.h"

// The scalar evaluator: one tree walk for partition rows and boxed rows.
// It lives apart from the vectorized kernels in evaluator.cc on purpose:
// compiled into that file, its two instantiations changed GCC's inlining
// of the kernels, and bench_headline's arith_filter took ~5% longer per
// row.

namespace snowprune {

namespace {

/// The scalar tree walk. `read(c)` returns the cell of bound column `c` as
/// a Value; the partition and boxed-row overloads of EvalScalar differ only
/// in it.
template <typename ReadColumn>
Value Walk(const Expr& expr, const ReadColumn& read);

template <typename ReadColumn>
Value WalkArith(const ArithExpr& e, const ReadColumn& read) {
  Value l = Walk(*e.left(), read);
  Value r = Walk(*e.right(), read);
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.is_numeric() || !r.is_numeric()) return Value::Null();
  bool both_int = l.is_int64() && r.is_int64();
  switch (e.op()) {
    case ArithOp::kAdd:
      if (both_int) {
        int64_t out;
        if (!__builtin_add_overflow(l.int64_value(), r.int64_value(), &out)) {
          return Value(out);
        }
      }
      return Value(l.AsDouble() + r.AsDouble());
    case ArithOp::kSub:
      if (both_int) {
        int64_t out;
        if (!__builtin_sub_overflow(l.int64_value(), r.int64_value(), &out)) {
          return Value(out);
        }
      }
      return Value(l.AsDouble() - r.AsDouble());
    case ArithOp::kMul:
      if (both_int) {
        int64_t out;
        if (!__builtin_mul_overflow(l.int64_value(), r.int64_value(), &out)) {
          return Value(out);
        }
      }
      return Value(l.AsDouble() * r.AsDouble());
    case ArithOp::kDiv: {
      double d = r.AsDouble();
      if (d == 0.0) return Value::Null();
      return Value(l.AsDouble() / d);
    }
  }
  return Value::Null();
}

template <typename ReadColumn>
Value WalkCompare(const CompareExpr& e, const ReadColumn& read) {
  Value l = Walk(*e.left(), read);
  Value r = Walk(*e.right(), read);
  if (l.is_null() || r.is_null()) return Value::Null();
  // Incompatible kinds (e.g. string vs numeric) compare to NULL rather than
  // raising; plans built through the typed PlanBuilder never hit this.
  if (!ScalarsComparable(l, r)) return Value::Null();
  int c = Value::Compare(l, r);
  bool result = false;
  switch (e.op()) {
    case CompareOp::kEq: result = c == 0; break;
    case CompareOp::kNe: result = c != 0; break;
    case CompareOp::kLt: result = c < 0; break;
    case CompareOp::kLe: result = c <= 0; break;
    case CompareOp::kGt: result = c > 0; break;
    case CompareOp::kGe: result = c >= 0; break;
  }
  return Value(result);
}

template <typename ReadColumn>
Value WalkConnective(const BoolConnectiveExpr& e, const ReadColumn& read) {
  const bool is_and = e.kind() == ExprKind::kAnd;
  bool saw_null = false;
  for (const auto& term : e.terms()) {
    Value v = Walk(*term, read);
    if (v.is_null()) {
      saw_null = true;
      continue;
    }
    bool b = v.bool_value();
    if (is_and && !b) return Value(false);   // FALSE dominates AND
    if (!is_and && b) return Value(true);    // TRUE dominates OR
  }
  if (saw_null) return Value::Null();
  return Value(is_and);
}

template <typename ReadColumn>
Value Walk(const Expr& expr, const ReadColumn& read) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      assert(ref.bound());
      return read(ref.index());
    }
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(expr).value();
    case ExprKind::kArith:
      return WalkArith(static_cast<const ArithExpr&>(expr), read);
    case ExprKind::kCompare:
      return WalkCompare(static_cast<const CompareExpr&>(expr), read);
    case ExprKind::kAnd:
    case ExprKind::kOr:
      return WalkConnective(static_cast<const BoolConnectiveExpr&>(expr),
                            read);
    case ExprKind::kNot: {
      Value v = Walk(*static_cast<const NotExpr&>(expr).input(), read);
      if (v.is_null()) return Value::Null();
      return Value(!v.bool_value());
    }
    case ExprKind::kNotTrue: {
      Value v = Walk(*static_cast<const NotTrueExpr&>(expr).input(), read);
      return Value(!(!v.is_null() && v.bool_value()));
    }
    case ExprKind::kIf: {
      const auto& e = static_cast<const IfExpr&>(expr);
      Value c = Walk(*e.cond(), read);
      bool take_then = !c.is_null() && c.bool_value();
      return Walk(take_then ? *e.then_expr() : *e.else_expr(), read);
    }
    case ExprKind::kLike: {
      const auto& e = static_cast<const LikeExpr&>(expr);
      Value v = Walk(*e.input(), read);
      if (v.is_null()) return Value::Null();
      if (!v.is_string()) return Value::Null();
      return Value(LikeMatch(v.str(), e.pattern()));
    }
    case ExprKind::kStartsWith: {
      const auto& e = static_cast<const StartsWithExpr&>(expr);
      Value v = Walk(*e.input(), read);
      if (v.is_null()) return Value::Null();
      if (!v.is_string()) return Value::Null();
      const std::string_view s = v.str();
      return Value(s.compare(0, e.prefix().size(), e.prefix()) == 0);
    }
    case ExprKind::kInList: {
      const auto& e = static_cast<const InListExpr&>(expr);
      Value v = Walk(*e.input(), read);
      if (v.is_null()) return Value::Null();
      for (const auto& cand : e.values()) {
        if (!cand.is_null() && ScalarsEqual(v, cand)) return Value(true);
      }
      return Value(false);
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      Value v = Walk(*e.input(), read);
      bool is_null = v.is_null();
      return Value(e.negate() ? !is_null : is_null);
    }
  }
  return Value::Null();
}

/// A predicate's value in three-valued logic: NULL is nullopt.
std::optional<bool> AsPredicate(const Value& v) {
  if (v.is_null()) return std::nullopt;
  return v.bool_value();
}

}  // namespace

Value EvalScalar(const Expr& expr, const MicroPartition& part, size_t row) {
  return Walk(expr, [&](size_t c) { return part.column(c).ValueAt(row); });
}

Value EvalScalar(const Expr& expr, const Row& row) {
  return Walk(expr, [&](size_t c) -> const Value& {
    assert(c < row.size());
    return row[c];
  });
}

std::optional<bool> EvalPredicate(const Expr& expr,
                                  const MicroPartition& partition, size_t row) {
  return AsPredicate(EvalScalar(expr, partition, row));
}

std::vector<uint8_t> EvalPredicateMask(const Expr& expr,
                                       const MicroPartition& partition) {
  std::vector<uint8_t> mask(partition.row_count(), 0);
  for (size_t i = 0; i < mask.size(); ++i) {
    auto r = EvalPredicate(expr, partition, i);
    mask[i] = (r.has_value() && *r) ? 1 : 0;
  }
  return mask;
}

int64_t CountMatches(const Expr& expr, const MicroPartition& partition) {
  int64_t n = 0;
  for (uint8_t m : EvalPredicateMask(expr, partition)) n += m;
  return n;
}

}  // namespace snowprune
