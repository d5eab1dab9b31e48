#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "common/stats_collector.h"
#include "common/tribool.h"
#include "common/value.h"
#include "storage/column.h"

namespace snowprune {
namespace {

// ---------------------------------------------------------------- Value ----

TEST(ValueTest, NullAndTypes) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(int64_t{5}).is_int64());
  EXPECT_TRUE(Value(2.5).is_float64());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_EQ(Value(int64_t{5}).type(), DataType::kInt64);
}

TEST(ValueTest, NumericCrossCompare) {
  EXPECT_EQ(Value::Compare(Value(int64_t{2}), Value(2.0)), 0);
  EXPECT_LT(Value::Compare(Value(int64_t{2}), Value(2.5)), 0);
  EXPECT_GT(Value::Compare(Value(3.1), Value(int64_t{3})), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value::Compare(Value("abc"), Value("abd")), 0);
  EXPECT_EQ(Value::Compare(Value("x"), Value("x")), 0);
}

TEST(ValueTest, EqualityTreatsNullAsNull) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_EQ(Value(int64_t{7}), Value(7.0));
  EXPECT_NE(Value("7"), Value(int64_t{7}));
}

TEST(ValueTest, HashIntegralNumericsCollide) {
  EXPECT_EQ(HashValue(Value(int64_t{42})), HashValue(Value(42.0)));
  EXPECT_NE(HashValue(Value(int64_t{42})), HashValue(Value(int64_t{43})));
  EXPECT_NE(HashValue(Value("a")), HashValue(Value("b")));
}

TEST(ValueTest, ToStringRendersSqlStyle) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(Value(true).ToString(), "true");
}

static_assert(sizeof(Value) == 16, "a boxed cell is 16 bytes");
static_assert(sizeof(ColumnStats) == 56,
              "a zone map is two cells and three words");

/// Pins the hash of doubles the int64 conversion cannot represent (NaN,
/// the infinities, ±1e19, 2^63) and of the edges it can: these are the
/// hashes the unguarded conversion gave on x86, so join summaries and
/// Bloom filters built before the guard still match.
TEST(ValueTest, HashFloat64OutsideInt64Range) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double two63 = 9223372036854775808.0;
  EXPECT_EQ(HashFloat64Value(nan), 0x469bf2dcc1aa179bULL);
  EXPECT_EQ(HashFloat64Value(inf), 0xce5683aaaedc68d0ULL);
  EXPECT_EQ(HashFloat64Value(-inf), 0xf35a23197f8fa277ULL);
  EXPECT_EQ(HashFloat64Value(1e19), 0xfcae498e3859f0b6ULL);
  EXPECT_EQ(HashFloat64Value(-1e19), 0xbd24d69b4b4e9bddULL);
  EXPECT_EQ(HashFloat64Value(two63), 0xcdbfd470b87a2b70ULL);
  EXPECT_EQ(HashFloat64Value(-two63), 0xf631a8a16ddf36fdULL);
  EXPECT_EQ(HashFloat64Value(-0.0), 0xbe7f8ca8ffb9f12fULL);
  EXPECT_EQ(HashFloat64Value(2.0), 0x3b788db0b178c88aULL);
  // -0.0 hashes as 0.0, -2^63 as INT64_MIN, 2 as 2.0; INT64_MAX rounds to
  // 2^63, outside int64, and hashes as that double.
  EXPECT_EQ(HashFloat64Value(-0.0), HashFloat64Value(0.0));
  EXPECT_EQ(HashFloat64Value(-0.0), HashInt64Value(0));
  EXPECT_EQ(HashFloat64Value(-two63),
            HashInt64Value(std::numeric_limits<int64_t>::min()));
  EXPECT_EQ(HashInt64Value(2), HashFloat64Value(2.0));
  EXPECT_EQ(HashValue(Value(int64_t{2})), HashValue(Value(2.0)));
  EXPECT_EQ(HashInt64Value(std::numeric_limits<int64_t>::max()),
            HashFloat64Value(two63));
  EXPECT_NE(HashFloat64Value(two63), HashFloat64Value(-two63));
}

/// One Value of each representation: NULL, bool, int64, double, an inline
/// string (at most 15 bytes) and a heap string.
std::vector<Value> EveryRepresentation() {
  std::vector<Value> v;
  v.emplace_back();
  v.emplace_back(true);
  v.emplace_back(int64_t{-42});
  v.emplace_back(2.5);
  v.emplace_back("inline");
  v.emplace_back(std::string(40, 'h'));
  return v;
}

/// Same kind and same content (operator== alone equates 2 and 2.0).
void ExpectSame(const Value& got, const Value& want, const std::string& at) {
  ASSERT_EQ(got.is_null(), want.is_null()) << at;
  if (want.is_null()) return;
  ASSERT_EQ(got.type(), want.type()) << at;
  EXPECT_TRUE(got == want) << at;
  if (want.is_string()) EXPECT_EQ(got.str(), want.str()) << at;
}

TEST(ValueTest, CopyMoveAndAssignBetweenEveryRepresentation) {
  const std::vector<Value> reps = EveryRepresentation();
  for (size_t i = 0; i < reps.size(); ++i) {
    const std::string at = "rep " + std::to_string(i);
    Value copy(reps[i]);
    ExpectSame(copy, reps[i], at + " copy");
    Value moved(std::move(copy));
    ExpectSame(moved, reps[i], at + " move");
    EXPECT_TRUE(copy.is_null()) << at << " moved-from";  // NOLINT
    // Self-assignment, through an alias so the compiler cannot see it.
    Value& alias = moved;
    moved = alias;
    ExpectSame(moved, reps[i], at + " self copy-assign");
    moved = std::move(alias);
    ExpectSame(moved, reps[i], at + " self move-assign");
    for (size_t j = 0; j < reps.size(); ++j) {
      const std::string pair = at + " <- rep " + std::to_string(j);
      Value target(reps[i]);
      target = reps[j];
      ExpectSame(target, reps[j], pair + " copy-assign");
      ExpectSame(reps[j], EveryRepresentation()[j], pair + " source kept");
      Value source(reps[j]);
      Value into(reps[i]);
      into = std::move(source);
      ExpectSame(into, reps[j], pair + " move-assign");
      EXPECT_TRUE(source.is_null()) << pair << " moved-from";  // NOLINT
    }
  }
}

/// Strings around the inline limit and far past it, with embedded '\0'
/// bytes, prefixes of one another and last-byte differences.
std::vector<std::string> EdgeStrings() {
  std::vector<std::string> out;
  for (size_t len : {0, 1, 14, 15, 16, 255, 70000}) {
    out.emplace_back(len, 'q');
    if (len == 0) continue;
    std::string last = out.back();
    last.back() = 'r';
    out.push_back(last);
    std::string nul = out[out.size() - 2];
    nul[len / 2] = '\0';
    out.push_back(nul);
  }
  out.emplace_back(std::string("a\0b", 3));
  out.emplace_back(std::string("\0\0", 2));
  return out;
}

TEST(ValueTest, StringsOfEveryLengthKeepTheirBytes) {
  for (const std::string& s : EdgeStrings()) {
    const std::string at = "length " + std::to_string(s.size());
    const Value v{std::string_view(s)};
    ASSERT_TRUE(v.is_string()) << at;
    EXPECT_EQ(v.type(), DataType::kString) << at;
    EXPECT_EQ(v.str(), s) << at;
    EXPECT_EQ(v.str().size(), s.size()) << at;
    EXPECT_EQ(v.string_value(), s) << at;
    EXPECT_EQ(Value(s).str(), s) << at;
    Value copy = v;
    EXPECT_EQ(copy.str(), s) << at;
    if (s.size() > Value::kInlineCapacity) {
      // A deep copy: the two views do not share bytes.
      EXPECT_NE(copy.str().data(), v.str().data()) << at;
    }
    Value moved = std::move(copy);
    EXPECT_EQ(moved.str(), s) << at;
    EXPECT_TRUE(copy.is_null()) << at;  // NOLINT
  }
}

TEST(ValueTest, WrongKindAccessThrows) {
  EXPECT_THROW((void)Value("x").int64_value(), std::bad_variant_access);
  EXPECT_THROW((void)Value(std::string(20, 'x')).float64_value(),
               std::bad_variant_access);
  EXPECT_THROW((void)Value(int64_t{1}).str(), std::bad_variant_access);
  EXPECT_THROW((void)Value(1.0).int64_value(), std::bad_variant_access);
  EXPECT_THROW((void)Value(true).string_value(), std::bad_variant_access);
  EXPECT_THROW((void)Value(int64_t{0}).bool_value(), std::bad_variant_access);
  EXPECT_THROW((void)Value::Null().bool_value(), std::bad_variant_access);
  EXPECT_THROW((void)Value::Null().str(), std::bad_variant_access);
}

/// A sealed string column of `cells`.
ColumnVector SealedStrings(const std::vector<std::string>& cells) {
  ColumnVector col(DataType::kString);
  for (const std::string& c : cells) col.AppendString(c);
  ColumnVector::Replaced replaced;
  col.Seal(&replaced);
  return col;
}

int Sign(int x) { return (x > 0) - (x < 0); }

/// Over the plain, 8-bit-code and 16-bit-code layouts, a column cell and
/// its boxed Value compare, equal and hash alike for every pair of edge
/// strings.
TEST(ValueTest, StringCellsAgreeWithBoxedValues) {
  const std::vector<std::string> edges = EdgeStrings();
  // Distinct cells: no dictionary is smaller. Each twice: 8-bit codes.
  // Each twice among 300 fillers: 16-bit codes.
  std::vector<std::string> twice = edges;
  twice.insert(twice.end(), edges.begin(), edges.end());
  std::vector<std::string> wide = twice;
  for (int i = 0; i < 300; ++i) wide.push_back("f" + std::to_string(i));
  wide.insert(wide.end(), wide.begin() + static_cast<long>(twice.size()),
              wide.end());
  const struct {
    ColumnLayout layout;
    std::vector<std::string> cells;
  } cases[] = {{ColumnLayout::kPlain, edges},
               {ColumnLayout::kCodes8, twice},
               {ColumnLayout::kCodes16, wide}};
  for (const auto& c : cases) {
    const ColumnVector col = SealedStrings(c.cells);
    ASSERT_EQ(col.layout(), c.layout);
    // Every edge-string row; the fillers are left out of the pairs.
    const size_t n = std::min(c.cells.size(), twice.size());
    for (size_t i = 0; i < n; ++i) {
      const ColumnCell a{&col, i};
      const Value boxed_a = col.ValueAt(i);
      ASSERT_EQ(boxed_a.str(), c.cells[i]);
      EXPECT_EQ(HashScalar(a), HashValue(boxed_a));
      EXPECT_EQ(HashValue(boxed_a), HashStringValue(c.cells[i]));
      for (size_t j = 0; j < n; ++j) {
        const ColumnCell b{&col, j};
        const Value boxed_b(c.cells[j]);
        const std::string at = std::to_string(static_cast<int>(c.layout)) +
                               " rows " + std::to_string(i) + "," +
                               std::to_string(j);
        const int want = Sign(c.cells[i].compare(c.cells[j]));
        EXPECT_EQ(Sign(Value::Compare(boxed_a, boxed_b)), want) << at;
        EXPECT_EQ(Sign(CompareScalars(a, b)), want) << at;
        EXPECT_EQ(Sign(CompareScalars(a, boxed_b)), want) << at;
        EXPECT_EQ(Sign(CompareScalars(boxed_a, b)), want) << at;
        EXPECT_EQ(boxed_a == boxed_b, want == 0) << at;
        EXPECT_EQ(ScalarsEqual(a, b), want == 0) << at;
        EXPECT_EQ(HashScalar(a) == HashScalar(b), want == 0) << at;
      }
    }
  }
}

// -------------------------------------------------------------- TriBool ----

TEST(TriBoolTest, KleeneTables) {
  EXPECT_EQ(TriAnd(TriBool::kTrue, TriBool::kMaybe), TriBool::kMaybe);
  EXPECT_EQ(TriAnd(TriBool::kFalse, TriBool::kMaybe), TriBool::kFalse);
  EXPECT_EQ(TriOr(TriBool::kTrue, TriBool::kMaybe), TriBool::kTrue);
  EXPECT_EQ(TriOr(TriBool::kFalse, TriBool::kMaybe), TriBool::kMaybe);
  EXPECT_EQ(TriNot(TriBool::kMaybe), TriBool::kMaybe);
  EXPECT_EQ(TriNot(TriBool::kTrue), TriBool::kFalse);
}

// ------------------------------------------------------------- Interval ----

TEST(IntervalTest, PointAndRange) {
  Interval p = Interval::Point(Value(int64_t{5}));
  EXPECT_TRUE(p.IsConstant());
  Interval r = Interval::Range(Value(int64_t{1}), Value(int64_t{9}), false);
  EXPECT_FALSE(r.IsConstant());
  EXPECT_TRUE(Interval::Point(Value::Null()).all_null);
}

TEST(IntervalTest, UnionTakesHull) {
  Interval a = Interval::Range(Value(int64_t{0}), Value(int64_t{10}), false);
  Interval b = Interval::Range(Value(int64_t{5}), Value(int64_t{20}), true);
  Interval u = Union(a, b);
  EXPECT_EQ(u.lo->int64_value(), 0);
  EXPECT_EQ(u.hi->int64_value(), 20);
  EXPECT_TRUE(u.maybe_null);
}

TEST(IntervalTest, AddExactInt) {
  Interval a = Interval::Range(Value(int64_t{1}), Value(int64_t{2}), false);
  Interval b = Interval::Range(Value(int64_t{10}), Value(int64_t{20}), false);
  Interval sum = Add(a, b);
  EXPECT_EQ(sum.lo->int64_value(), 11);
  EXPECT_EQ(sum.hi->int64_value(), 22);
}

TEST(IntervalTest, MulCoversSignCombinations) {
  Interval a = Interval::Range(Value(int64_t{-3}), Value(int64_t{2}), false);
  Interval b = Interval::Range(Value(int64_t{-5}), Value(int64_t{4}), false);
  Interval prod = Mul(a, b);
  // Candidates: 15, -12, -10, 8 -> [-12, 15].
  EXPECT_EQ(prod.lo->int64_value(), -12);
  EXPECT_EQ(prod.hi->int64_value(), 15);
}

TEST(IntervalTest, MulWidensFloatConservatively) {
  Interval a = Interval::Range(Value(0.1), Value(0.3), false);
  Interval b = Interval::Point(Value(3.0));
  Interval prod = Mul(a, b);
  EXPECT_LE(prod.lo->AsDouble(), 0.1 * 3.0);
  EXPECT_GE(prod.hi->AsDouble(), 0.3 * 3.0);
}

TEST(IntervalTest, DivByRangeContainingZeroIsUnbounded) {
  Interval a = Interval::Range(Value(int64_t{1}), Value(int64_t{2}), false);
  Interval b = Interval::Range(Value(int64_t{-1}), Value(int64_t{1}), false);
  Interval q = Div(a, b);
  EXPECT_FALSE(q.lo.has_value());
  EXPECT_FALSE(q.hi.has_value());
}

TEST(IntervalTest, AddOverflowDegradesToDouble) {
  Interval a = Interval::Point(Value(std::numeric_limits<int64_t>::max()));
  Interval b = Interval::Point(Value(int64_t{10}));
  Interval sum = Add(a, b);
  ASSERT_TRUE(sum.hi.has_value());
  EXPECT_TRUE(sum.hi->is_float64());
  EXPECT_GE(sum.hi->AsDouble(), 9.2e18);
}

TEST(IntervalTest, CompareDisjointRanges) {
  Interval a = Interval::Range(Value(int64_t{0}), Value(int64_t{9}), false);
  Interval b = Interval::Range(Value(int64_t{10}), Value(int64_t{19}), false);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kLt, b), TriBool::kTrue);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kGe, b), TriBool::kFalse);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kEq, b), TriBool::kFalse);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kNe, b), TriBool::kTrue);
}

TEST(IntervalTest, CompareOverlappingRangesIsMaybe) {
  Interval a = Interval::Range(Value(int64_t{0}), Value(int64_t{15}), false);
  Interval b = Interval::Range(Value(int64_t{10}), Value(int64_t{19}), false);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kLt, b), TriBool::kMaybe);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kEq, b), TriBool::kMaybe);
}

TEST(IntervalTest, NullDegradesTrueToMaybe) {
  Interval a = Interval::Range(Value(int64_t{0}), Value(int64_t{9}), true);
  Interval b = Interval::Point(Value(int64_t{100}));
  // All non-null values are < 100, but NULL rows don't satisfy it.
  EXPECT_EQ(CompareIntervals(a, CompareOp::kLt, b), TriBool::kMaybe);
  // False stays false: no value (null or not) satisfies >.
  EXPECT_EQ(CompareIntervals(a, CompareOp::kGt, b), TriBool::kFalse);
}

TEST(IntervalTest, AllNullComparesFalse) {
  EXPECT_EQ(CompareIntervals(Interval::AllNull(), CompareOp::kEq,
                             Interval::Point(Value(int64_t{1}))),
            TriBool::kFalse);
}

TEST(IntervalTest, EqOnEqualConstants) {
  Interval a = Interval::Point(Value("feet"));
  Interval b = Interval::Point(Value("feet"));
  EXPECT_EQ(CompareIntervals(a, CompareOp::kEq, b), TriBool::kTrue);
  EXPECT_EQ(CompareIntervals(a, CompareOp::kNe, b), TriBool::kFalse);
}

TEST(IntervalTest, MixedKindsAreMaybe) {
  Interval a = Interval::Point(Value("abc"));
  Interval b = Interval::Point(Value(int64_t{3}));
  EXPECT_EQ(CompareIntervals(a, CompareOp::kEq, b), TriBool::kMaybe);
}

TEST(CompareOpTest, InvertAndMirror) {
  EXPECT_EQ(Invert(CompareOp::kLt), CompareOp::kGe);
  EXPECT_EQ(Invert(CompareOp::kEq), CompareOp::kNe);
  EXPECT_EQ(Mirror(CompareOp::kLt), CompareOp::kGt);
  EXPECT_EQ(Mirror(CompareOp::kEq), CompareOp::kEq);
}

// ------------------------------------------------------------------ Rng ----

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(3);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Discrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(ZipfTest, RankOneDominates) {
  Rng rng(4);
  ZipfSampler zipf(100, 1.2);
  int64_t first = 0, total = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t r = zipf.Sample(&rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
    if (r == 1) ++first;
    ++total;
  }
  EXPECT_GT(first, total / 10);
}

// ------------------------------------------------------- StatsCollector ----

TEST(StatsCollectorTest, PercentilesAndMean) {
  StatsCollector c;
  for (int i = 1; i <= 100; ++i) c.Add(i);
  EXPECT_DOUBLE_EQ(c.Mean(), 50.5);
  EXPECT_NEAR(c.Median(), 50.5, 0.5);
  EXPECT_DOUBLE_EQ(c.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(c.Percentile(100), 100);
  EXPECT_NEAR(c.Percentile(90), 90.1, 0.5);
}

/// One sample: every percentile (including the 0 and 100 edges) is that
/// sample — the degenerate case the service's latency printout hits when a
/// run completed a single query.
TEST(StatsCollectorTest, PercentileSingleSample) {
  StatsCollector c;
  c.Add(7.25);
  EXPECT_DOUBLE_EQ(c.Percentile(0), 7.25);
  EXPECT_DOUBLE_EQ(c.Percentile(50), 7.25);
  EXPECT_DOUBLE_EQ(c.Percentile(99), 7.25);
  EXPECT_DOUBLE_EQ(c.Percentile(100), 7.25);
  EXPECT_DOUBLE_EQ(c.Mean(), 7.25);
}

/// p<=0 clamps to the minimum and p>=100 to the maximum, even when asked
/// for out-of-range percentiles.
TEST(StatsCollectorTest, PercentileEdgeClamping) {
  StatsCollector c;
  c.AddAll({5, 1, 9, 3});
  EXPECT_DOUBLE_EQ(c.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(c.Percentile(-10), 1);
  EXPECT_DOUBLE_EQ(c.Percentile(100), 9);
  EXPECT_DOUBLE_EQ(c.Percentile(250), 9);
}

/// Percentile sorts lazily; an Add after a Percentile query must
/// invalidate the cached sort so later queries see the new sample.
TEST(StatsCollectorTest, PercentileResortsAfterAdd) {
  StatsCollector c;
  c.AddAll({10, 20, 30});
  EXPECT_DOUBLE_EQ(c.Percentile(100), 30);
  c.Add(5);  // out of order vs the cached sorted copy
  EXPECT_DOUBLE_EQ(c.Percentile(0), 5);
  EXPECT_DOUBLE_EQ(c.Percentile(100), 30);
  c.Add(99);
  EXPECT_DOUBLE_EQ(c.Percentile(100), 99);
  EXPECT_DOUBLE_EQ(c.Median(), 20);  // sorted: 5 10 20 30 99
}

TEST(StatsCollectorTest, CdfAt) {
  StatsCollector c;
  c.AddAll({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(c.CdfAt(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.CdfAt(0), 0.0);
  EXPECT_DOUBLE_EQ(c.CdfAt(4), 1.0);
}

TEST(StatsCollectorTest, BoxPlotRowMarksMedianAndMean) {
  StatsCollector c;
  c.AddAll({0, 0.5, 1});
  std::string row = c.BoxPlotRow(0, 1, 21);
  EXPECT_EQ(row.size(), 21u);
  EXPECT_NE(row.find('#'), std::string::npos);
  EXPECT_EQ(row.front(), '|');
  EXPECT_EQ(row.back(), '|');
}

}  // namespace
}  // namespace snowprune
