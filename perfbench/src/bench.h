// Shared declarations of the snowprune benchmark program (perfbench).
//
// perfbench plays one closed-loop client against service::QueryService:
// it submits a query, waits for the answer, and only then sends the next
// operation. Inputs are generated from --seed before anything is timed; the
// program under test only ever sees the generated rows and plans.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "core/predicate_cache.h"
#include "exec/engine.h"
#include "exec/plan.h"
#include "service/query_service.h"
#include "storage/catalog.h"

namespace perfbench {

using snowprune::Catalog;
using snowprune::PlanPtr;
using snowprune::QueryResult;
using snowprune::Row;
using snowprune::Schema;
using snowprune::Table;

// ---------------------------------------------------------------------------
// Inputs (data.cc)
// ---------------------------------------------------------------------------

/// "c0042"-style category label, as workload::SyntheticTable writes them.
std::string CategoryName(size_t index);

/// Copies `source` row by row through TableBuilder (which cuts
/// micro-partitions and computes their zone maps) into a new table of the
/// same name, schema and partition size. This is the timed ingestion; the
/// source was generated before anything was timed.
std::shared_ptr<Table> Ingest(const Table& source);

/// The rows of one INSERT micro-batch, generated before they are timed.
struct Batch {
  std::string table;
  Schema schema;
  std::vector<Row> rows;
};

/// Cuts `batch` into one micro-partition through TableBuilder.
std::shared_ptr<Table> Ingest(const Batch& batch);

// ---------------------------------------------------------------------------
// Operations and workloads (workloads.cc)
// ---------------------------------------------------------------------------

/// How an answer is compared with the reference engine's.
enum class CheckKind {
  kMultiset,  ///< Exact row multiset (scans, joins, aggregates).
  kOrdered,   ///< Ordered sort-key values (top-k, sort): ties may differ
              ///< in the other columns.
  kLimit,     ///< LIMIT without ORDER BY: row count, and every row among
              ///< the rows the unlimited query returns.
};

struct Op {
  bool insert = false;
  size_t batch = 0;  ///< Insert: index of the micro-batch.
  PlanPtr plan;
  CheckKind check = CheckKind::kMultiset;
  std::string order_column;  ///< kOrdered: output column of the sort key.
  bool descending = true;    ///< kOrdered.
  int64_t limit_k = 0;       ///< kLimit / kOrdered with a limit.
  PlanPtr unlimited;         ///< kLimit: the plan without its LIMIT.
  int tile = -1;             ///< dashboard_dml: tile index.
};

/// One set-up instance of the program: catalog, optional predicate cache,
/// and the running service.
struct Env {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<snowprune::PredicateCache> cache;
  std::unique_ptr<snowprune::service::QueryService> service;
  double ingest_s = 0.0;  ///< TableBuilder + RegisterTable time.
  int64_t ingested_rows = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Generates every input from the seed (not part of set-up).
  virtual void MakeInputs(uint64_t seed) = 0;
  /// Ingests the inputs into a fresh catalog (timed as set-up).
  virtual void Load(Env* env) const = 0;
  virtual snowprune::service::QueryServiceConfig ServiceConfig(
      Env* env) const = 0;
  /// Restarts the deterministic operation stream.
  virtual void Restart(const Catalog& catalog) = 0;
  virtual Op Next() = 0;
  /// Operations run as warm-up inside set-up.
  virtual size_t warmup_ops() const = 0;
  /// Whether the timed phase starts the stream over after the warm-up, so
  /// it begins on the stream's balanced start. False where the warm-up
  /// changed state the stream depends on (appended rows, cache entries).
  virtual bool replay_after_warmup() const { return true; }
  /// Count metrics are taken over exactly this many timed queries, so they
  /// repeat exactly at a fixed seed whatever the host's speed.
  virtual size_t count_queries() const = 0;
  /// How many set-ups a run makes; setup_s is their median.
  virtual size_t setup_repeats() const = 0;
  /// dashboard_dml: the rows of INSERT micro-batch `batch`.
  virtual Batch InsertBatch(size_t batch) const {
    (void)batch;
    return Batch();
  }
  /// dashboard_dml: every tile's operation (reference replay).
  virtual const std::vector<Op>* tiles() const { return nullptr; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Appends an INSERT micro-batch to the live table in place: TableBuilder
/// cuts the rows into a partition, which is appended to the table, and the
/// predicate cache is notified. Returns the batch as a table of its own.
std::shared_ptr<Table> ApplyInsert(const Batch& batch, Catalog* catalog,
                                   snowprune::PredicateCache* cache);

// ---------------------------------------------------------------------------
// Answers and the reference check (check.cc)
// ---------------------------------------------------------------------------

/// What the client keeps of one answer.
struct Answer {
  bool ok = false;
  std::string error;
  uint64_t digest = 0;        ///< Multiset or ordered-key digest.
  int64_t rows = 0;
  std::vector<uint64_t> row_hashes;  ///< kLimit only.
};

uint64_t HashRow(const Row& row);
Answer Digest(const Op& op, const QueryResult& result);

/// Replays every executed operation against a reference engine (all pruning
/// off, serial, no cache, shards or specialization) and counts answers that
/// differ. `catalog` must hold the tables as they were before the first
/// operation. Each of `samples` (operation index, the answer as received)
/// is also corrupted and must then fail the comparison: the self-check.
struct CheckOutcome {
  int64_t checked = 0;
  int64_t wrong = 0;
  bool self_check_ok = false;  ///< A corrupted answer was caught.
  std::string first_error;
};
CheckOutcome CheckAnswers(const Workload& w, Catalog* catalog,
                          const std::vector<Op>& ops,
                          const std::vector<Answer>& answers,
                          const std::vector<std::pair<size_t, QueryResult>>&
                              samples);

// ---------------------------------------------------------------------------
// Per-layer analysis of traced queries (layers.cc)
// ---------------------------------------------------------------------------

struct LayerAccumulator;

/// Collects per-query layer measurements during the traced phase.
class LayerReport {
 public:
  LayerReport();
  ~LayerReport();
  LayerReport(const LayerReport&) = delete;
  LayerReport& operator=(const LayerReport&) = delete;

  /// One traced query: its client latency, handle data and result.
  void AddQuery(const Op& op, double latency_ms, double queue_ms,
                const snowprune::Trace* trace,
                const snowprune::QueryProfile* profile,
                const QueryResult& result, const Catalog& catalog);
  void AddCounters(const std::map<std::string, int64_t>& deltas);
  void AddInsert(double ms, int64_t rows);
  void SetSetup(double ingest_s, int64_t rows);
  void SetOverhead(double untraced_qps, double traced_qps);

  /// Metric name -> value, in the names BENCHMARK.json lists.
  std::map<std::string, double> Metrics() const;
  /// Human-readable per-layer table with the reconciliation line.
  std::string Text(const std::string& workload) const;

 private:
  std::unique_ptr<LayerAccumulator> acc_;
};

/// Registry counters the layers already emit.
std::map<std::string, int64_t> ReadCounters();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
