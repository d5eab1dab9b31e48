// The three workloads. Each is a deterministic operation stream over inputs
// generated from the seed; see perfbench/README.md for why each exists.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "bench.h"
#include "common/rng.h"
#include "expr/builder.h"
#include "workload/production_model.h"
#include "workload/query_gen.h"
#include "workload/table_gen.h"

namespace perfbench {

using namespace snowprune;  // NOLINT: plan/expression builders.
using snowprune::service::QueryServiceConfig;
using snowprune::workload::QueryClass;

namespace {

/// One client, one query at a time, on a shared pool of two workers.
QueryServiceConfig BaseServiceConfig() {
  QueryServiceConfig config;
  config.num_threads = 2;
  config.max_in_flight = 1;
  return config;
}

void RegisterOrDie(Catalog* catalog, std::shared_ptr<Table> table) {
  Status s = catalog->RegisterTable(std::move(table));
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    std::exit(3);
  }
}

/// Ingests a copy of `source` into the set-up's catalog.
void Register(Env* env, const Table& source) {
  RegisterOrDie(env->catalog.get(), Ingest(source));
  env->ingested_rows += source.num_rows();
}


Op QueryOp(PlanPtr plan, CheckKind check) {
  Op op;
  op.plan = std::move(plan);
  op.check = check;
  return op;
}

Op OrderedOp(PlanPtr plan, std::string column, bool descending,
             int64_t k = 0) {
  Op op = QueryOp(std::move(plan), CheckKind::kOrdered);
  op.order_column = std::move(column);
  op.descending = descending;
  op.limit_k = k;
  return op;
}

Op LimitOp(PlanPtr plan) {
  Op op = QueryOp(plan, CheckKind::kLimit);
  op.limit_k = plan->limit_k;
  op.unlimited = plan->child;
  return op;
}

// ---------------------------------------------------------------------------
// prod_mix: the paper's production query population.
// ---------------------------------------------------------------------------

class ProdMix : public Workload {
 public:
  const char* name() const override { return "prod_mix"; }

  void MakeInputs(uint64_t seed) override {
    seed_ = seed;
    // The repository's StandardCatalog (bench/bench_util.h) at scale 1:
    // three probe tables across the layout spectrum plus two small build
    // tables, the same generator calls with seeds seed * 7919 + 1, + 2, ...
    struct Spec {
      const char* name;
      workload::Layout layout;
      size_t partitions, rows;
      double nulls;
    };
    const Spec specs[] = {
        {"probe_sorted", workload::Layout::kSorted, 200, 500, 0.0},
        {"probe_clustered", workload::Layout::kClustered, 200, 500, 0.02},
        {"probe_random", workload::Layout::kRandom, 80, 500, 0.0},
        {"build_small", workload::Layout::kRandom, 2, 1500, 0.0},
        {"build_tiny", workload::Layout::kClustered, 1, 800, 0.0},
    };
    tables_.clear();
    uint64_t table_seed = seed * 7919 + 1;
    Catalog sources;
    for (const Spec& s : specs) {
      workload::TableGenConfig config;
      config.name = s.name;
      config.layout = s.layout;
      config.num_partitions = s.partitions;
      config.rows_per_partition = s.rows;
      config.null_fraction = s.nulls;
      config.seed = table_seed++;
      tables_.push_back(workload::SyntheticTable(config));
      RegisterOrDie(&sources, tables_.back());
    }
    // The generator reads the tables' zone maps for its literals.
    Populate(sources);
  }

  void Load(Env* env) const override {
    for (const auto& source : tables_) Register(env, *source);
  }

  QueryServiceConfig ServiceConfig(Env*) const override {
    QueryServiceConfig config = BaseServiceConfig();
    config.num_shards = 4;
    config.shard_policy = shard::ShardPolicy::kRange;
    return config;
  }

  void Restart(const Catalog&) override { next_ = 0; }

  Op Next() override {
    // Bit-reversed positions walk the cost-sorted population evenly, so
    // every prefix of the stream has nearly the population's mix.
    size_t i = next_++ % kPopulation, r = 0;
    for (size_t b = 1; b < kPopulation; b <<= 1, i >>= 1) r = (r << 1) | (i & 1);
    return population_[r];
  }

  size_t warmup_ops() const override { return 8; }
  size_t count_queries() const override { return 1024; }
  size_t setup_repeats() const override { return 9; }

 private:
  static constexpr size_t kPopulation = 8192;  ///< A power of two.

  /// Draws the seed's query population from the production model, sorted
  /// by what drives a query's cost: class, table, selectivity, k.
  void Populate(const Catalog& catalog) {
    workload::QueryGenerator::Config config;
    config.seed = seed_ * 104729 + 17;
    workload::QueryGenerator generator(
        &catalog,
        std::vector<std::string>{"probe_sorted", "probe_clustered",
                                 "probe_random"},
        std::vector<std::string>{"build_small", "build_tiny"},
        workload::ProductionModel(), config);
    std::vector<workload::GeneratedQuery> drawn;
    for (size_t i = 0; i < kPopulation; ++i) drawn.push_back(generator.Generate());
    auto table = [](const PlanPtr& plan) {
      const PlanNode* n = plan.get();
      while (n->kind != PlanNode::Kind::kScan) {
        n = n->child ? n->child.get() : n->left.get();
      }
      return n->table;
    };
    std::stable_sort(drawn.begin(), drawn.end(),
                     [&](const workload::GeneratedQuery& a,
                         const workload::GeneratedQuery& b) {
                       return std::make_tuple(a.query_class, table(a.plan),
                                              a.target_selectivity, a.limit_k) <
                              std::make_tuple(b.query_class, table(b.plan),
                                              b.target_selectivity, b.limit_k);
                     });
    population_.clear();
    for (const workload::GeneratedQuery& q : drawn) population_.push_back(ToOp(q));
  }

  static Op ToOp(const workload::GeneratedQuery& q) {
    switch (q.query_class) {
      case QueryClass::kLimitNoPredicate:
      case QueryClass::kLimitWithPredicate:
        return LimitOp(q.plan);
      case QueryClass::kTopK:
      case QueryClass::kTopKGroupBySame:
      case QueryClass::kTopKGroupByAgg:
        return OrderedOp(q.plan, q.plan->order_column, q.plan->descending,
                         q.plan->limit_k);
      default:
        return QueryOp(q.plan, CheckKind::kMultiset);
    }
  }

  uint64_t seed_ = 0;
  std::vector<std::shared_ptr<Table>> tables_;
  std::vector<Op> population_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// scan_heavy: unprunable analytics over a fact table larger than L3.
// ---------------------------------------------------------------------------

class ScanHeavy : public Workload {
 public:
  const char* name() const override { return "scan_heavy"; }

  void MakeInputs(uint64_t seed) override {
    seed_ = seed;
    workload::TableGenConfig fact;
    fact.name = "fact";
    fact.layout = workload::Layout::kRandom;
    fact.num_partitions = 4096;
    fact.rows_per_partition = 500;
    fact.null_fraction = 0.01;
    fact.seed = seed * 7919 + 101;
    fact_ = workload::SyntheticTable(fact);
    workload::TableGenConfig dim;
    dim.name = "dim";
    dim.layout = workload::Layout::kRandom;
    dim.num_partitions = 10;
    dim.rows_per_partition = 500;
    dim.num_categories = 50;
    dim.seed = seed * 7919 + 102;
    dim_ = workload::SyntheticTable(dim);
    BuildPool();
  }

  void Load(Env* env) const override {
    Register(env, *fact_);
    Register(env, *dim_);
  }

  QueryServiceConfig ServiceConfig(Env*) const override {
    return BaseServiceConfig();
  }

  void Restart(const Catalog&) override {
    order_rng_ = Rng(seed_ * 31 + 5);
    next_ = 0;
    order_.clear();
  }

  Op Next() override {
    if (next_ == order_.size()) {
      order_.resize(pool_.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      order_rng_.Shuffle(&order_);
      next_ = 0;
    }
    return pool_[order_[next_++]];
  }

  size_t warmup_ops() const override { return 1; }
  /// Two whole passes over the pool.
  size_t count_queries() const override { return 48; }
  size_t setup_repeats() const override { return 5; }

 private:
  /// A fixed pool of analytic queries, replayed in seeded random order
  /// (a BI refresh schedule). Every query reads the whole fact table.
  void BuildPool() {
    Rng rng(seed_ * 131 + 7);
    pool_.clear();
    auto arith = [&](double threshold) {
      // 2*val + key/1000 spans [0, 3000); zone maps cannot bound it
      // usefully on a random layout.
      return Gt(Add(Mul(Col("val"), Lit(2.0)), Div(Col("key"), Lit(1000.0))),
                Lit(threshold));
    };
    for (int round = 0; round < 4; ++round) {
      // GROUP BY over an arithmetic filter (~half the rows pass).
      pool_.push_back(QueryOp(
          AggregatePlan(ScanPlan("fact", arith(1450.0 + 100.0 * rng.Uniform())),
                        {"cat"},
                        {{AggFunc::kCount, "", "n"},
                         {AggFunc::kSum, "val", "total"},
                         {AggFunc::kMin, "key", "min_key"},
                         {AggFunc::kMax, "ts", "max_ts"}}),
          CheckKind::kMultiset));
      // Arithmetic filter returning ~0.5% of the rows.
      const double lo = 100.0 + 700.0 * rng.Uniform();
      pool_.push_back(QueryOp(
          ScanPlan("fact",
                   And({Gt(Sub(Mul(Col("val"), Lit(3.0)),
                               Div(Col("key"), Lit(100000.0))),
                           Lit(3.0 * lo)),
                        Lt(Col("val"), Lit(lo + 5.0))})),
          CheckKind::kMultiset));
      // Wide-range top-k with a large k.
      const int64_t k = 2000 * (round + 1);
      const int64_t key_lo = rng.UniformInt(0, 100'000);
      pool_.push_back(OrderedOp(
          TopKPlan(ScanPlan("fact", Between(Col("key"), Value(key_lo),
                                            Value(key_lo + 850'000))),
                   "val", /*descending=*/true, k),
          "val", true, k));
      // Full sort of a ~0.4% slice.
      const double v = 990.0 * rng.Uniform();
      pool_.push_back(OrderedOp(
          SortPlan(ScanPlan("fact", Between(Col("val"), Value(v),
                                            Value(v + 4.0))),
                   "key", /*descending=*/false),
          "key", false));
      // fact ⋈ dim with a wide build-side filter.
      const int64_t dim_lo = rng.UniformInt(0, 200'000);
      pool_.push_back(QueryOp(
          JoinPlan(ScanPlan("fact", arith(300.0 + 300.0 * rng.Uniform())),
                   ScanPlan("dim", Between(Col("key"), Value(dim_lo),
                                           Value(dim_lo + 700'000))),
                   "key", "key"),
          CheckKind::kMultiset));
      // Join then aggregate.
      pool_.push_back(QueryOp(
          AggregatePlan(
              JoinPlan(ScanPlan("fact"),
                       ScanPlan("dim", Lt(Col("val"),
                                         Lit(450.0 + 100.0 * rng.Uniform()))),
                       "key", "key"),
              {"cat"},
              {{AggFunc::kCount, "", "n"}, {AggFunc::kAvg, "val", "avg_val"}}),
          CheckKind::kMultiset));
    }
  }

  uint64_t seed_ = 0;
  std::shared_ptr<Table> fact_, dim_;
  std::vector<Op> pool_;
  Rng order_rng_{1};
  std::vector<size_t> order_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// dashboard_dml: repeated dashboard tiles over a growing event table.
// ---------------------------------------------------------------------------

constexpr size_t kBaseEventPartitions = 600;
constexpr size_t kEventRowsPerPartition = 500;
constexpr size_t kInsertEvery = 100;  ///< Every 100th operation inserts.
constexpr size_t kInsertRows = 500;
constexpr int64_t kEventKeyMax = 1'000'000;

class DashboardDml : public Workload {
 public:
  const char* name() const override { return "dashboard_dml"; }

  void MakeInputs(uint64_t seed) override {
    seed_ = seed;
    workload::TableGenConfig config;
    config.name = "events";
    config.layout = workload::Layout::kClustered;
    config.overlap = 0.002;
    config.domain_max = kEventKeyMax;
    config.num_partitions = kBaseEventPartitions;
    config.rows_per_partition = kEventRowsPerPartition;
    config.null_fraction = 0.01;
    config.num_categories = 200;
    config.seed = seed * 7919 + 201;
    events_ = workload::SyntheticTable(config);
    BuildTiles();
  }

  void Load(Env* env) const override {
    Register(env, *events_);
    env->cache = std::make_unique<PredicateCache>();
  }

  QueryServiceConfig ServiceConfig(Env* env) const override {
    QueryServiceConfig config = BaseServiceConfig();
    config.engine.predicate_cache = env->cache.get();
    return config;
  }

  void Restart(const Catalog&) override {
    rng_ = Rng(seed_ * 31 + 9);
    op_index_ = 0;
    batches_ = 0;
    next_ = 0;
    round_.clear();
  }

  Op Next() override {
    ++op_index_;
    if (op_index_ % kInsertEvery == 0) {
      Op op;
      op.insert = true;
      op.batch = batches_++;
      return op;
    }
    // Each refresh shows every tile once, in a fresh order.
    if (next_ == round_.size()) {
      round_.resize(tiles_.size());
      for (size_t i = 0; i < round_.size(); ++i) round_[i] = i;
      rng_.Shuffle(&round_);
      next_ = 0;
    }
    return tiles_[round_[next_++]];
  }

  /// Two refresh rounds: the first populates the cache, the second hits.
  size_t warmup_ops() const override { return 48; }
  bool replay_after_warmup() const override { return false; }
  size_t count_queries() const override { return 3000; }
  size_t setup_repeats() const override { return 7; }

  Batch InsertBatch(size_t batch) const override {
    // New events continue the table: later ts, keys following the same
    // clustered trend past the base domain.
    Rng rng(seed_ * 1000003 + batch);
    Batch out;
    out.table = events_->name();
    out.schema = events_->schema();
    const size_t base = static_cast<size_t>(events_->num_rows());
    const double key_per_row =
        static_cast<double>(kEventKeyMax) / static_cast<double>(base);
    for (size_t j = 0; j < kInsertRows; ++j) {
      const int64_t row = static_cast<int64_t>(base + batch * kInsertRows + j);
      const double key = static_cast<double>(row) * key_per_row +
                         rng.Normal(0.0, 0.002 * kEventKeyMax);
      const bool null_val = rng.Bernoulli(0.01);
      const double val = rng.Uniform() * 1000.0;
      const auto cat = static_cast<size_t>(rng.UniformInt(0, 199));
      out.rows.push_back({Value(row),
                          Value(static_cast<int64_t>(std::max(0.0, key))),
                          null_val ? Value::Null() : Value(val),
                          Value(CategoryName(cat)), Value(row)});
    }
    return out;
  }

  const std::vector<Op>* tiles() const override { return &tiles_; }

 private:
  /// The tile shapes, categories and k are fixed, so every seed shows the
  /// same dashboard; the seed moves thresholds, key bands and needles,
  /// which leaves each tile's cost about the same.
  void BuildTiles() {
    Rng rng(seed_ * 131 + 11);
    tiles_.clear();
    auto cat = [](int c) { return Eq(Col("cat"), Lit(CategoryName(c))); };
    auto val_above = [&](double v) {
      return Gt(Col("val"), Lit(v - 50.0 + 100.0 * rng.Uniform()));
    };
    auto val_below = [&](double v) {
      return Lt(Col("val"), Lit(v - 50.0 + 100.0 * rng.Uniform()));
    };
    auto topk = [&](ExprPtr pred, const char* column, int64_t k) {
      tiles_.push_back(OrderedOp(
          TopKPlan(ScanPlan("events", std::move(pred)), column,
                   /*descending=*/true, k),
          column, true, k));
    };
    // Latest events: ORDER BY ts DESC LIMIT k, optionally filtered.
    topk(nullptr, "ts", 10);
    topk(nullptr, "ts", 100);
    topk(cat(0), "ts", 20);
    topk(cat(1), "ts", 50);
    topk(val_above(500), "ts", 10);
    topk(val_above(800), "ts", 50);
    topk(And({cat(2), val_below(750)}), "ts", 20);
    topk(And({cat(3), val_below(600)}), "ts", 100);
    // Highest keys within a category or value band.
    topk(cat(4), "key", 20);
    topk(val_above(700), "key", 50);
    topk(cat(5), "key", 10);
    topk(val_above(300), "key", 100);
    // LIMIT with a predicate: sample rows of a category or a key band.
    const int64_t ks[] = {10, 20, 50};
    for (int i = 0; i < 3; ++i) {
      tiles_.push_back(LimitOp(LimitPlan(ScanPlan("events", cat(i)), ks[i])));
      const int64_t lo = rng.UniformInt(0, kEventKeyMax - 20'000);
      tiles_.push_back(LimitOp(LimitPlan(
          ScanPlan("events",
                   Between(Col("key"), Value(lo), Value(lo + 20'000))),
          ks[i])));
    }
    // Needle filters: point lookups by key and by id, a narrow band.
    const int64_t rows = events_->num_rows();
    for (int i = 0; i < 2; ++i) {
      const auto row = static_cast<size_t>(rng.UniformInt(0, rows - 1));
      const int64_t key =
          events_
              ->partition_metadata(
                  static_cast<PartitionId>(row / kEventRowsPerPartition))
              .column(1)
              .Int64At(row % kEventRowsPerPartition);
      tiles_.push_back(QueryOp(ScanPlan("events", Eq(Col("key"), Lit(key))),
                               CheckKind::kMultiset));
      tiles_.push_back(QueryOp(
          ScanPlan("events", Eq(Col("id"), Lit(rng.UniformInt(0, rows - 1)))),
          CheckKind::kMultiset));
      const int64_t at = rng.UniformInt(0, kEventKeyMax - 300);
      tiles_.push_back(QueryOp(
          ScanPlan("events", And({Between(Col("key"), Value(at),
                                          Value(at + 300)),
                                  cat(0)})),
          CheckKind::kMultiset));
    }
    for (size_t i = 0; i < tiles_.size(); ++i) {
      tiles_[i].tile = static_cast<int>(i);
    }
  }

  uint64_t seed_ = 0;
  std::shared_ptr<Table> events_;
  std::vector<Op> tiles_;
  Rng rng_{1};
  size_t op_index_ = 0;
  size_t batches_ = 0;
  std::vector<size_t> round_;
  size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "prod_mix") return std::make_unique<ProdMix>();
  if (name == "scan_heavy") return std::make_unique<ScanHeavy>();
  if (name == "dashboard_dml") return std::make_unique<DashboardDml>();
  return nullptr;
}

std::shared_ptr<Table> ApplyInsert(const Batch& batch, Catalog* catalog,
                                   PredicateCache* cache) {
  std::shared_ptr<Table> delta = Ingest(batch);
  std::shared_ptr<Table> live = catalog->GetTable(batch.table);
  live->AppendPartition(
      MicroPartition(static_cast<PartitionId>(live->num_partitions()),
                     delta->partition_metadata(0).columns()));
  if (cache != nullptr) cache->OnInsert(*live);
  return delta;
}

}  // namespace perfbench
