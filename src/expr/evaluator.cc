#include "expr/evaluator.h"

#include <algorithm>
#include <cassert>
#include <string_view>

#include "expr/like.h"

namespace snowprune {

namespace {

// ---------------------------------------------------------------------------
// Vectorized predicate evaluation (the ColumnBatch hot path)
// ---------------------------------------------------------------------------

/// The set of rows a kernel must evaluate. `idx == nullptr` means the
/// identity set 0..count-1 (a whole partition); otherwise `idx` lists
/// physical row indexes. Selection-aware connectives shrink this set as
/// terms decide rows; all mask/lane buffers stay indexed by physical row,
/// so kernels write (and later read) only the listed rows.
struct RowSpan {
  const uint32_t* idx = nullptr;
  size_t count = 0;

  static RowSpan All(size_t n) { return RowSpan{nullptr, n}; }
  static RowSpan Of(const std::vector<uint32_t>& rows) {
    return RowSpan{rows.data(), rows.size()};
  }
  size_t size() const { return count; }
};

template <typename Fn>
inline void ForEachRow(const RowSpan& rows, Fn&& fn) {
  if (rows.idx == nullptr) {
    for (uint32_t r = 0; r < rows.count; ++r) fn(r);
  } else {
    for (size_t i = 0; i < rows.count; ++i) fn(rows.idx[i]);
  }
}

/// LIFO accessors over the EvalScratch pools. Acquire sizes the buffer for
/// `n` rows and bumps the depth; Release must mirror in strict LIFO order.
/// The deques keep references stable while nested acquisitions extend the
/// pools.
std::vector<uint8_t>& AcquireMask(EvalScratch* s, size_t n) {
  if (s->term_depth == s->term_buffers.size()) s->term_buffers.emplace_back();
  std::vector<uint8_t>& buf = s->term_buffers[s->term_depth++];
  buf.resize(n);
  return buf;
}
void ReleaseMask(EvalScratch* s) { --s->term_depth; }

std::vector<uint32_t>& AcquireRows(EvalScratch* s) {
  if (s->row_depth == s->row_buffers.size()) s->row_buffers.emplace_back();
  return s->row_buffers[s->row_depth++];
}
void ReleaseRows(EvalScratch* s) { --s->row_depth; }

NumericLanes& AcquireLanes(EvalScratch* s, size_t n) {
  if (s->lane_depth == s->lane_buffers.size()) s->lane_buffers.emplace_back();
  NumericLanes& lanes = s->lane_buffers[s->lane_depth++];
  lanes.Resize(n);
  return lanes;
}
void ReleaseLanes(EvalScratch* s) { --s->lane_depth; }

void EvalMask(const Expr& expr, const MicroPartition& part,
              const RowSpan& rows, std::vector<uint8_t>* out,
              EvalScratch* scratch);

/// Per-row scalar fallback for the rare shapes the vectorized evaluator does
/// not cover (string/bool-valued subexpressions in value position,
/// unbound columns). Boxes only the values this subtree touches, and only
/// for the rows still alive; the batch's data flow stays unboxed.
void FallbackMask(const Expr& expr, const MicroPartition& part,
                  const RowSpan& rows, std::vector<uint8_t>* out) {
  ForEachRow(rows, [&](uint32_t r) {
    Value v = EvalScalar(expr, part, r);
    (*out)[r] = v.is_null() ? kPredNull
                            : (v.bool_value() ? kPredTrue : kPredFalse);
  });
}

const ColumnVector* AsBoundColumn(const Expr& e, const MicroPartition& part) {
  if (e.kind() != ExprKind::kColumnRef) return nullptr;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  if (!ref.bound() || ref.index() >= part.num_columns()) return nullptr;
  return &part.column(ref.index());
}

const Value* AsLiteral(const Expr& e) {
  if (e.kind() != ExprKind::kLiteral) return nullptr;
  return &static_cast<const LiteralExpr&>(e).value();
}

bool ApplyCmp(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

int CmpDouble(double x, double y) { return x < y ? -1 : (x > y ? 1 : 0); }
int CmpInt(int64_t x, int64_t y) { return x < y ? -1 : (x > y ? 1 : 0); }

void FillRows(const RowSpan& rows, uint8_t v, std::vector<uint8_t>* out) {
  ForEachRow(rows, [&](uint32_t r) { (*out)[r] = v; });
}

// The leaf kernels below are [[gnu::flatten]]: each is a set of loops over
// per-row lambdas, and a loop is only fast with its lambda inlined. Left to
// GCC's size heuristics, the lambdas (and CompareMask, see there) moved out
// of line whenever this file grew.

/// Column-vs-literal comparison, typed loops per (column type, literal
/// kind). `flip` means the literal was the *left* operand. Mirrors
/// WalkCompare exactly: NULL on either side → NULL, cross-kind (string vs
/// numeric, bool vs anything else) → NULL. A dictionary-coded string
/// column compares each entry once.
[[gnu::flatten]] void CompareColumnLiteral(const ColumnVector& col,
                                          const Value& lit, CompareOp op,
                                          bool flip, const RowSpan& rows,
                                          std::vector<uint8_t>* out) {
  auto run = [&](auto&& holds_at) {
    WithNullTest(col, [&](auto is_null) {
      ForEachRow(rows, [&](uint32_t r) {
        (*out)[r] = is_null(r)    ? kPredNull
                    : holds_at(r) ? kPredTrue
                                  : kPredFalse;
      });
    });
  };
  auto holds = [op, flip](int c) { return ApplyCmp(op, flip ? -c : c); };
  switch (col.type()) {
    case DataType::kInt64:
      if (lit.is_int64()) {
        const int64_t y = lit.int64_value();
        WithInt64s(col, [&](auto x) {
          run([&](size_t r) { return holds(CmpInt(x(r), y)); });
        });
        return;
      }
      if (lit.is_float64()) {
        const double y = lit.float64_value();
        WithInt64s(col, [&](auto x) {
          run([&](size_t r) {
            return holds(CmpDouble(static_cast<double>(x(r)), y));
          });
        });
        return;
      }
      break;
    case DataType::kFloat64:
      if (lit.is_numeric()) {
        const double y = lit.AsDouble();
        const auto& xs = col.float64_data();
        run([&](size_t r) { return holds(CmpDouble(xs[r], y)); });
        return;
      }
      break;
    case DataType::kString:
      if (lit.is_string()) {
        const std::string_view y = lit.str();
        WithStringMatches(
            col, rows.size(),
            [&](std::string_view x) { return holds(x.compare(y)); }, run);
        return;
      }
      break;
    case DataType::kBool:
      if (lit.is_bool()) {
        const int y = lit.bool_value() ? 1 : 0;
        const auto& xs = col.bool_data();
        run([&](size_t r) { return holds(static_cast<int>(xs[r]) - y); });
        return;
      }
      break;
  }
  // Cross-kind comparison: NULL for every row, matching WalkCompare.
  FillRows(rows, kPredNull, out);
}

[[gnu::flatten]] void CompareColumnColumn(const ColumnVector& a,
                                         const ColumnVector& b, CompareOp op,
                                         const RowSpan& rows,
                                         std::vector<uint8_t>* out) {
  auto run = [&](auto&& cmp_at) {
    WithNullTest(a, [&](auto a_null) {
      WithNullTest(b, [&](auto b_null) {
        ForEachRow(rows, [&](uint32_t r) {
          if (a_null(r) || b_null(r)) {
            (*out)[r] = kPredNull;
            return;
          }
          (*out)[r] = ApplyCmp(op, cmp_at(r)) ? kPredTrue : kPredFalse;
        });
      });
    });
  };
  const bool a_num = a.type() == DataType::kInt64 || a.type() == DataType::kFloat64;
  const bool b_num = b.type() == DataType::kInt64 || b.type() == DataType::kFloat64;
  if (a_num && b_num) {
    if (a.type() == DataType::kInt64 && b.type() == DataType::kInt64) {
      WithInt64s(a, [&](auto x) {
        WithInt64s(b, [&](auto y) {
          run([&](size_t r) { return CmpInt(x(r), y(r)); });
        });
      });
    } else {
      auto at = [](const ColumnVector& c, size_t r) {
        return c.type() == DataType::kInt64 ? static_cast<double>(c.Int64At(r))
                                            : c.Float64At(r);
      };
      run([&](size_t r) { return CmpDouble(at(a, r), at(b, r)); });
    }
    return;
  }
  if (a.type() == DataType::kString && b.type() == DataType::kString) {
    run([&](size_t r) { return a.StringAt(r).compare(b.StringAt(r)); });
    return;
  }
  if (a.type() == DataType::kBool && b.type() == DataType::kBool) {
    const auto& xs = a.bool_data();
    const auto& ys = b.bool_data();
    run([&](size_t r) {
      return static_cast<int>(xs[r]) - static_cast<int>(ys[r]);
    });
    return;
  }
  FillRows(rows, kPredNull, out);
}

// ---------------------------------------------------------------------------
// Typed arithmetic / IF value lanes
// ---------------------------------------------------------------------------

/// One row of arithmetic over lane-tagged operands; mirrors WalkArith
/// exactly: int64 ops with per-row overflow fallback to double, division
/// always in double with a divide-by-zero → NULL check on the (converted)
/// divisor. Writes out->{kind,i64,f64}[r].
inline void ArithCell(ArithOp op, const NumericLanes& l, const NumericLanes& r,
                      uint32_t row, NumericLanes* out) {
  const uint8_t lk = l.kind[row], rk = r.kind[row];
  if (lk == kLaneNull || rk == kLaneNull) {
    out->kind[row] = kLaneNull;
    return;
  }
  const bool both_int = lk == kLaneInt64 && rk == kLaneInt64;
  const double ld =
      lk == kLaneInt64 ? static_cast<double>(l.i64[row]) : l.f64[row];
  const double rd =
      rk == kLaneInt64 ? static_cast<double>(r.i64[row]) : r.f64[row];
  switch (op) {
    case ArithOp::kAdd:
      if (both_int) {
        int64_t v;
        if (!__builtin_add_overflow(l.i64[row], r.i64[row], &v)) {
          out->kind[row] = kLaneInt64;
          out->i64[row] = v;
          return;
        }
      }
      out->kind[row] = kLaneDouble;
      out->f64[row] = ld + rd;
      return;
    case ArithOp::kSub:
      if (both_int) {
        int64_t v;
        if (!__builtin_sub_overflow(l.i64[row], r.i64[row], &v)) {
          out->kind[row] = kLaneInt64;
          out->i64[row] = v;
          return;
        }
      }
      out->kind[row] = kLaneDouble;
      out->f64[row] = ld - rd;
      return;
    case ArithOp::kMul:
      if (both_int) {
        int64_t v;
        if (!__builtin_mul_overflow(l.i64[row], r.i64[row], &v)) {
          out->kind[row] = kLaneInt64;
          out->i64[row] = v;
          return;
        }
      }
      out->kind[row] = kLaneDouble;
      out->f64[row] = ld * rd;
      return;
    case ArithOp::kDiv:
      if (rd == 0.0) {
        out->kind[row] = kLaneNull;
        return;
      }
      out->kind[row] = kLaneDouble;
      out->f64[row] = ld / rd;
      return;
  }
  out->kind[row] = kLaneNull;
}

/// Evaluates a numeric *value* subtree (column ref, literal, arithmetic,
/// IF) into typed lanes for the listed rows. Returns false when the subtree
/// has a shape the typed path does not cover (string/bool inputs, unbound
/// columns, any other node kind); the caller then falls back to scalar
/// evaluation and `out` is unspecified.
bool EvalNumericLanes(const Expr& expr, const MicroPartition& part,
                      const RowSpan& rows, NumericLanes* out,
                      EvalScratch* scratch) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      const ColumnVector* col = AsBoundColumn(expr, part);
      if (col == nullptr) return false;
      if (col->type() == DataType::kInt64) {
        WithInt64s(*col, [&](auto x) {
          WithNullTest(*col, [&](auto is_null) {
            ForEachRow(rows, [&](uint32_t r) {
              out->kind[r] = is_null(r) ? kLaneNull : kLaneInt64;
              out->i64[r] = x(r);
            });
          });
        });
        return true;
      }
      if (col->type() == DataType::kFloat64) {
        const auto& xs = col->float64_data();
        WithNullTest(*col, [&](auto is_null) {
          ForEachRow(rows, [&](uint32_t r) {
            out->kind[r] = is_null(r) ? kLaneNull : kLaneDouble;
            out->f64[r] = xs[r];
          });
        });
        return true;
      }
      return false;  // bool/string columns are not numeric values
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(expr).value();
      if (v.is_null()) {
        ForEachRow(rows, [&](uint32_t r) { out->kind[r] = kLaneNull; });
        return true;
      }
      if (v.is_int64()) {
        const int64_t x = v.int64_value();
        ForEachRow(rows, [&](uint32_t r) {
          out->kind[r] = kLaneInt64;
          out->i64[r] = x;
        });
        return true;
      }
      if (v.is_float64()) {
        const double x = v.float64_value();
        ForEachRow(rows, [&](uint32_t r) {
          out->kind[r] = kLaneDouble;
          out->f64[r] = x;
        });
        return true;
      }
      return false;
    }
    case ExprKind::kArith: {
      const auto& e = static_cast<const ArithExpr&>(expr);
      const size_t n = out->kind.size();
      NumericLanes& l = AcquireLanes(scratch, n);
      NumericLanes& r = AcquireLanes(scratch, n);
      const bool ok = EvalNumericLanes(*e.left(), part, rows, &l, scratch) &&
                      EvalNumericLanes(*e.right(), part, rows, &r, scratch);
      if (ok) {
        const ArithOp op = e.op();
        ForEachRow(rows, [&](uint32_t row) { ArithCell(op, l, r, row, out); });
      }
      ReleaseLanes(scratch);
      ReleaseLanes(scratch);
      return ok;
    }
    case ExprKind::kIf: {
      // Split the rows on the vectorized condition mask and evaluate each
      // branch only over its taken rows — both branches write disjoint row
      // sets of the same physically-indexed `out`, exactly the per-row
      // branch selection of the scalar evaluator.
      const auto& e = static_cast<const IfExpr&>(expr);
      const size_t n = out->kind.size();
      std::vector<uint8_t>& cond = AcquireMask(scratch, n);
      EvalMask(*e.cond(), part, rows, &cond, scratch);
      std::vector<uint32_t>& then_rows = AcquireRows(scratch);
      std::vector<uint32_t>& else_rows = AcquireRows(scratch);
      then_rows.clear();
      else_rows.clear();
      ForEachRow(rows, [&](uint32_t r) {
        (cond[r] == kPredTrue ? then_rows : else_rows).push_back(r);
      });
      const bool ok =
          EvalNumericLanes(*e.then_expr(), part, RowSpan::Of(then_rows), out,
                           scratch) &&
          EvalNumericLanes(*e.else_expr(), part, RowSpan::Of(else_rows), out,
                           scratch);
      ReleaseRows(scratch);
      ReleaseRows(scratch);
      ReleaseMask(scratch);
      return ok;
    }
    default:
      return false;
  }
}

/// Compares two numeric lane sets row by row, as WalkCompare does: NULL
/// operand → NULL, int64 pairs exactly, mixed pairs through double.
[[gnu::flatten]] void CompareLanes(const NumericLanes& l,
                                   const NumericLanes& r, CompareOp op,
                                   const RowSpan& rows,
                                   std::vector<uint8_t>* out) {
  ForEachRow(rows, [&](uint32_t row) {
    const uint8_t lk = l.kind[row], rk = r.kind[row];
    if (lk == kLaneNull || rk == kLaneNull) {
      (*out)[row] = kPredNull;
      return;
    }
    int c;
    if (lk == kLaneInt64 && rk == kLaneInt64) {
      c = CmpInt(l.i64[row], r.i64[row]);
    } else {
      c = CmpDouble(
          lk == kLaneInt64 ? static_cast<double>(l.i64[row]) : l.f64[row],
          rk == kLaneInt64 ? static_cast<double>(r.i64[row]) : r.f64[row]);
    }
    (*out)[row] = ApplyCmp(op, c) ? kPredTrue : kPredFalse;
  });
}

/// Always inlined into EvalMask: the comparison dispatch is the hottest
/// step of predicate evaluation.
[[gnu::always_inline]] inline void CompareMask(const CompareExpr& e,
                                               const MicroPartition& part,
                                               const RowSpan& rows,
                                               std::vector<uint8_t>* out,
                                               EvalScratch* scratch) {
  const ColumnVector* lc = AsBoundColumn(*e.left(), part);
  const ColumnVector* rc = AsBoundColumn(*e.right(), part);
  const Value* lv = AsLiteral(*e.left());
  const Value* rv = AsLiteral(*e.right());
  if (lc != nullptr && rv != nullptr) {
    if (rv->is_null()) {
      FillRows(rows, kPredNull, out);
      return;
    }
    CompareColumnLiteral(*lc, *rv, e.op(), /*flip=*/false, rows, out);
    return;
  }
  if (lv != nullptr && rc != nullptr) {
    if (lv->is_null()) {
      FillRows(rows, kPredNull, out);
      return;
    }
    CompareColumnLiteral(*rc, *lv, e.op(), /*flip=*/true, rows, out);
    return;
  }
  if (lc != nullptr && rc != nullptr) {
    CompareColumnColumn(*lc, *rc, e.op(), rows, out);
    return;
  }
  // Arithmetic / IF operand(s): typed value lanes instead of per-row boxing.
  // Lanes are always numeric, so the operands are always comparable.
  {
    const size_t n = part.row_count();
    NumericLanes& l = AcquireLanes(scratch, n);
    NumericLanes& r = AcquireLanes(scratch, n);
    const bool ok = EvalNumericLanes(*e.left(), part, rows, &l, scratch) &&
                    EvalNumericLanes(*e.right(), part, rows, &r, scratch);
    if (ok) CompareLanes(l, r, e.op(), rows, out);
    ReleaseLanes(scratch);
    ReleaseLanes(scratch);
    if (ok) return;
  }
  FallbackMask(e, part, rows, out);
}

/// Selection-aware N-ary AND/OR. A row is *decided* once a term proves it
/// FALSE (AND) or TRUE (OR) — no later term can change it, so it is dropped
/// from the active-row set and every subsequent term evaluates only the
/// rows still in play. NULL does not decide: a NULL row can still become
/// FALSE under AND (or TRUE under OR), so it stays active. The surviving
/// merge is exactly the original full-width merge restricted to active
/// rows, hence bit-identical outcomes.
void ConnectiveMask(const BoolConnectiveExpr& e, const MicroPartition& part,
                    const RowSpan& rows, std::vector<uint8_t>* out,
                    EvalScratch* scratch) {
  const bool is_and = e.kind() == ExprKind::kAnd;
  const uint8_t decided = is_and ? kPredFalse : kPredTrue;
  FillRows(rows, is_and ? kPredTrue : kPredFalse, out);
  // One term buffer + one active-row list per connective nesting level,
  // borrowed from the scratch for the duration of this connective (the
  // deques keep the references stable while nested terms extend the pools).
  std::vector<uint8_t>& term = AcquireMask(scratch, part.row_count());
  std::vector<uint32_t>& active = AcquireRows(scratch);
  active.resize(rows.size());
  RowSpan cur = rows;
  for (const auto& t : e.terms()) {
    if (cur.size() == 0) break;  // every remaining row is decided
    EvalMask(*t, part, cur, &term, scratch);
    size_t kept = 0;
    ForEachRow(cur, [&](uint32_t r) {
      uint8_t& o = (*out)[r];
      // Rows decided in an earlier round (possible when an identity span
      // was retained) must not re-enter the active list.
      if (o == decided) return;
      if (is_and) {
        if (term[r] == kPredFalse) {
          o = kPredFalse;  // FALSE dominates AND
          return;
        }
        if (term[r] == kPredNull && o == kPredTrue) o = kPredNull;
      } else {
        if (term[r] == kPredTrue) {
          o = kPredTrue;  // TRUE dominates OR
          return;
        }
        if (term[r] == kPredNull && o == kPredFalse) o = kPredNull;
      }
      // In-place compaction: `cur` may alias `active`, but kept never
      // outruns the read cursor.
      active[kept++] = r;
    });
    if (cur.idx == nullptr && kept * 2 >= cur.count) {
      // Most rows still undecided: stay on the contiguous identity span.
      // Decided rows get re-evaluated by later terms, which is harmless —
      // the merge above is monotone (FALSE under AND and TRUE under OR
      // absorb) — and full-width sequential loops beat an index-list
      // gather until the survivor fraction drops below about half.
      continue;
    }
    cur = RowSpan{active.data(), kept};
  }
  ReleaseRows(scratch);
  ReleaseMask(scratch);
}

[[gnu::flatten]] void InListMask(const InListExpr& e,
                                 const MicroPartition& part,
                                 const RowSpan& rows,
                                 std::vector<uint8_t>* out) {
  const ColumnVector* col = AsBoundColumn(*e.input(), part);
  if (col == nullptr) {
    FallbackMask(e, part, rows, out);
    return;
  }
  const auto& vals = e.values();
  auto run = [&](auto&& match_at) {
    WithNullTest(*col, [&](auto is_null) {
      ForEachRow(rows, [&](uint32_t r) {
        if (is_null(r)) {
          (*out)[r] = kPredNull;
          return;
        }
        (*out)[r] = match_at(r) ? kPredTrue : kPredFalse;
      });
    });
  };
  // "Equal" as Value::Compare reports 0 (neither less nor greater), so the
  // scalar IN evaluation and this path agree even on NaN list values.
  auto cmp_equal = [](double x, double y) { return !(x < y) && !(x > y); };
  switch (col->type()) {
    case DataType::kInt64: {
      WithInt64s(*col, [&](auto at) {
        run([&](size_t r) {
          const int64_t x = at(r);
          for (const Value& cand : vals) {
            if (cand.is_null() || cand.is_string() || cand.is_bool()) continue;
            if (cand.is_int64() ? x == cand.int64_value()
                                : cmp_equal(static_cast<double>(x),
                                            cand.float64_value())) {
              return true;
            }
          }
          return false;
        });
      });
      return;
    }
    case DataType::kFloat64: {
      const auto& xs = col->float64_data();
      run([&](size_t r) {
        for (const Value& cand : vals) {
          if (cand.is_null() || cand.is_string() || cand.is_bool()) continue;
          if (cmp_equal(xs[r], cand.AsDouble())) return true;
        }
        return false;
      });
      return;
    }
    case DataType::kString: {
      WithStringMatches(
          *col, rows.size(),
          [&](std::string_view x) {
            for (const Value& cand : vals) {
              if (cand.is_string() && x == cand.str()) return true;
            }
            return false;
          },
          run);
      return;
    }
    case DataType::kBool: {
      const auto& xs = col->bool_data();
      run([&](size_t r) {
        for (const Value& cand : vals) {
          if (cand.is_bool() && (xs[r] != 0) == cand.bool_value()) return true;
        }
        return false;
      });
      return;
    }
  }
  FallbackMask(e, part, rows, out);
}

/// LIKE / STARTSWITH over a string column; non-string columns yield NULL
/// for every row (matching the scalar evaluator's !is_string() path). A
/// dictionary-coded column matches each entry once.
template <typename MatchFn>
[[gnu::flatten]] void StringMatchMask(const Expr& input,
                                      const MicroPartition& part,
                                      MatchFn match, const Expr& whole,
                                      const RowSpan& rows,
                                      std::vector<uint8_t>* out) {
  const ColumnVector* col = AsBoundColumn(input, part);
  if (col == nullptr) {
    FallbackMask(whole, part, rows, out);
    return;
  }
  if (col->type() != DataType::kString) {
    FillRows(rows, kPredNull, out);
    return;
  }
  WithStringMatches(*col, rows.size(), match, [&](auto match_at) {
    WithNullTest(*col, [&](auto is_null) {
      ForEachRow(rows, [&](uint32_t r) {
        (*out)[r] = is_null(r)    ? kPredNull
                    : match_at(r) ? kPredTrue
                                  : kPredFalse;
      });
    });
  });
}

void EvalMask(const Expr& expr, const MicroPartition& part,
              const RowSpan& rows, std::vector<uint8_t>* out,
              EvalScratch* scratch) {
  switch (expr.kind()) {
    case ExprKind::kCompare:
      CompareMask(static_cast<const CompareExpr&>(expr), part, rows, out,
                  scratch);
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr:
      ConnectiveMask(static_cast<const BoolConnectiveExpr&>(expr), part, rows,
                     out, scratch);
      return;
    case ExprKind::kNot: {
      EvalMask(*static_cast<const NotExpr&>(expr).input(), part, rows, out,
               scratch);
      ForEachRow(rows, [&](uint32_t r) {
        uint8_t& m = (*out)[r];
        if (m != kPredNull) m = m == kPredTrue ? kPredFalse : kPredTrue;
      });
      return;
    }
    case ExprKind::kNotTrue: {
      EvalMask(*static_cast<const NotTrueExpr&>(expr).input(), part, rows, out,
               scratch);
      ForEachRow(rows, [&](uint32_t r) {
        uint8_t& m = (*out)[r];
        m = m == kPredTrue ? kPredFalse : kPredTrue;
      });
      return;
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      const ColumnVector* col = AsBoundColumn(*e.input(), part);
      if (col == nullptr) {
        FallbackMask(expr, part, rows, out);
        return;
      }
      WithNullTest(*col, [&](auto is_null) {
        ForEachRow(rows, [&](uint32_t r) {
          const bool null = is_null(r);
          (*out)[r] = (e.negate() ? !null : null) ? kPredTrue : kPredFalse;
        });
      });
      return;
    }
    case ExprKind::kLike: {
      const auto& e = static_cast<const LikeExpr&>(expr);
      StringMatchMask(
          *e.input(), part,
          [&](std::string_view s) { return LikeMatch(s, e.pattern()); },
          expr, rows, out);
      return;
    }
    case ExprKind::kStartsWith: {
      const auto& e = static_cast<const StartsWithExpr&>(expr);
      StringMatchMask(
          *e.input(), part,
          [&](std::string_view s) {
            return s.compare(0, e.prefix().size(), e.prefix()) == 0;
          },
          expr, rows, out);
      return;
    }
    case ExprKind::kInList:
      InListMask(static_cast<const InListExpr&>(expr), part, rows, out);
      return;
    case ExprKind::kColumnRef: {
      const ColumnVector* col = AsBoundColumn(expr, part);
      if (col != nullptr && col->type() == DataType::kBool) {
        const auto& xs = col->bool_data();
        WithNullTest(*col, [&](auto is_null) {
          ForEachRow(rows, [&](uint32_t r) {
            (*out)[r] = is_null(r) ? kPredNull
                                   : (xs[r] != 0 ? kPredTrue : kPredFalse);
          });
        });
        return;
      }
      FallbackMask(expr, part, rows, out);
      return;
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(expr).value();
      if (v.is_null()) {
        FillRows(rows, kPredNull, out);
        return;
      }
      if (v.is_bool()) {
        FillRows(rows, v.bool_value() ? kPredTrue : kPredFalse, out);
        return;
      }
      FallbackMask(expr, part, rows, out);
      return;
    }
    case ExprKind::kIf: {
      // Vectorized IF in predicate position: split the rows on the
      // condition mask; each branch (itself a predicate) writes its own
      // disjoint row set of `out` — the scalar evaluator's per-row branch
      // selection, column-at-a-time.
      const auto& e = static_cast<const IfExpr&>(expr);
      std::vector<uint8_t>& cond = AcquireMask(scratch, part.row_count());
      EvalMask(*e.cond(), part, rows, &cond, scratch);
      std::vector<uint32_t>& then_rows = AcquireRows(scratch);
      std::vector<uint32_t>& else_rows = AcquireRows(scratch);
      then_rows.clear();
      else_rows.clear();
      ForEachRow(rows, [&](uint32_t r) {
        (cond[r] == kPredTrue ? then_rows : else_rows).push_back(r);
      });
      EvalMask(*e.then_expr(), part, RowSpan::Of(then_rows), out, scratch);
      EvalMask(*e.else_expr(), part, RowSpan::Of(else_rows), out, scratch);
      ReleaseRows(scratch);
      ReleaseRows(scratch);
      ReleaseMask(scratch);
      return;
    }
    default:
      // kArith as a predicate root: scalar semantics per row.
      FallbackMask(expr, part, rows, out);
      return;
  }
}

}  // namespace

void EvalPredicateOutcomes(const Expr& expr, const MicroPartition& partition,
                           std::vector<uint8_t>* out) {
  EvalScratch scratch;
  EvalPredicateOutcomes(expr, partition, out, &scratch);
}

void EvalPredicateOutcomes(const Expr& expr, const MicroPartition& partition,
                           std::vector<uint8_t>* out, EvalScratch* scratch) {
  const size_t n = static_cast<size_t>(partition.row_count());
  out->assign(n, kPredFalse);
  EvalMask(expr, partition, RowSpan::All(n), out, scratch);
}

void ComputeSelection(const Expr& expr, const MicroPartition& partition,
                      std::vector<uint32_t>* selection) {
  EvalScratch scratch;
  ComputeSelection(expr, partition, selection, &scratch);
}

void ComputeSelection(const Expr& expr, const MicroPartition& partition,
                      std::vector<uint32_t>* selection, EvalScratch* scratch) {
  selection->clear();
  std::vector<uint8_t>& outcomes = scratch->outcomes;
  EvalPredicateOutcomes(expr, partition, &outcomes, scratch);
  for (size_t r = 0; r < outcomes.size(); ++r) {
    if (outcomes[r] == kPredTrue) {
      selection->push_back(static_cast<uint32_t>(r));
    }
  }
}

}  // namespace snowprune
