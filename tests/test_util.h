#ifndef SNOWPRUNE_TESTS_TEST_UTIL_H_
#define SNOWPRUNE_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace snowprune {
namespace testing_util {

/// Serializes a result's row stream so byte-identity across configurations
/// is a string comparison. Type tags distinguish e.g. int64 1 from bool
/// true and from "1"; NULLs (which have no type — Value::type() asserts)
/// get an out-of-band tag.
inline std::string Serialize(const QueryResult& r) {
  std::string s;
  for (const auto& row : r.rows) {
    for (const auto& v : row) {
      s += v.is_null() ? "null" : std::to_string(static_cast<int>(v.type()));
      s += ':';
      s += v.ToString();
      s += ',';
    }
    s += '\n';
  }
  return s;
}

/// Compares every deterministic PruningStats counter (speculative_loads is
/// the one legitimately nondeterministic field under parallel execution).
/// Returns an empty string on match, a description of the first divergence
/// otherwise — usable as `EXPECT_EQ(DiffStats(a, b), "")`.
inline std::string DiffStats(const PruningStats& a, const PruningStats& b) {
  auto diff = [](const char* name, int64_t x, int64_t y) {
    return std::string(name) + ": " + std::to_string(x) +
           " != " + std::to_string(y);
  };
  if (a.total_partitions != b.total_partitions) {
    return diff("total_partitions", a.total_partitions, b.total_partitions);
  }
  if (a.pruned_by_filter != b.pruned_by_filter) {
    return diff("pruned_by_filter", a.pruned_by_filter, b.pruned_by_filter);
  }
  if (a.pruned_by_limit != b.pruned_by_limit) {
    return diff("pruned_by_limit", a.pruned_by_limit, b.pruned_by_limit);
  }
  if (a.pruned_by_join != b.pruned_by_join) {
    return diff("pruned_by_join", a.pruned_by_join, b.pruned_by_join);
  }
  if (a.pruned_by_topk != b.pruned_by_topk) {
    return diff("pruned_by_topk", a.pruned_by_topk, b.pruned_by_topk);
  }
  if (a.pruned_by_cache != b.pruned_by_cache) {
    return diff("pruned_by_cache", a.pruned_by_cache, b.pruned_by_cache);
  }
  if (a.scanned_partitions != b.scanned_partitions) {
    return diff("scanned_partitions", a.scanned_partitions,
                b.scanned_partitions);
  }
  if (a.scanned_rows != b.scanned_rows) {
    return diff("scanned_rows", a.scanned_rows, b.scanned_rows);
  }
  return "";
}

/// Builds a table from boxed rows, cutting partitions at
/// `rows_per_partition`.
inline std::shared_ptr<Table> MakeTable(
    const std::string& name, const Schema& schema,
    const std::vector<std::vector<Value>>& rows, size_t rows_per_partition) {
  TableBuilder builder(name, schema, rows_per_partition);
  for (const auto& row : rows) {
    Status s = builder.AppendRow(row);
    if (!s.ok()) std::abort();
  }
  return builder.Finish();
}

/// Brute-force oracle: number of rows matching `predicate` per partition.
/// The predicate must be bound to the table's schema.
inline std::vector<int64_t> MatchCountsPerPartition(const Table& table,
                                                    const ExprPtr& predicate) {
  std::vector<int64_t> counts;
  for (size_t pid = 0; pid < table.num_partitions(); ++pid) {
    const MicroPartition& part =
        table.partition_metadata(static_cast<PartitionId>(pid));
    counts.push_back(predicate ? CountMatches(*predicate, part)
                               : part.row_count());
  }
  return counts;
}

/// A compact single-column int64 table: `partitions` lists each partition's
/// values in order.
inline std::shared_ptr<Table> IntTable(
    const std::string& name, const std::string& column,
    const std::vector<std::vector<int64_t>>& partitions) {
  Schema schema({Field{column, DataType::kInt64, true}});
  size_t max_rows = 1;
  for (const auto& p : partitions) max_rows = std::max(max_rows, p.size());
  TableBuilder builder(name, schema, max_rows);
  std::shared_ptr<Table> table = std::make_shared<Table>(name, schema);
  for (const auto& p : partitions) {
    ColumnVector col(DataType::kInt64);
    for (int64_t v : p) col.AppendInt64(v);
    table->AppendPartition(
        MicroPartition(static_cast<PartitionId>(table->num_partitions()),
                       {std::move(col)}));
  }
  return table;
}

}  // namespace testing_util
}  // namespace snowprune

#endif  // SNOWPRUNE_TESTS_TEST_UTIL_H_
