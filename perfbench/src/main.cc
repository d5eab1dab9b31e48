// perfbench: one closed-loop client driving service::QueryService.
//
//   perfbench --workload prod_mix|scan_heavy|dashboard_dml --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that attributes time and work to the layers. Either way every
// answer is checked against a reference engine, and the last line of
// standard output is one JSON object.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>

#include "bench.h"
#include "common/stats_collector.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using snowprune::StatsCollector;
using snowprune::service::QueryService;

/// The timed phase ends by then however slow the host, so that a whole
/// run, set-up and check included, stays within 180 s.
constexpr double kHardStopSeconds = 120.0;
/// qps is the median over this many equal runs of consecutive operations.
constexpr size_t kQpsGroups = 10;
/// The self-check keeps a copy of one small answer per check kind.
constexpr int64_t kMaxSampleRows = 1000;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ProcessCpuMs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

/// A "VmRSS:" or "VmHWM:" (peak) figure of /proc/self/status, in MB.
double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::atof(line.c_str() + field.size()) / 1024.0;  // In kB.
    }
  }
  return 0.0;
}

/// Returns freed memory to the system and restarts the kernel's peak-RSS
/// meter at the current RSS, so that the peak read later, minus the returned
/// baseline, is the memory used since.
double RssBaselineMb() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // Resets VmHWM to VmRSS.
  const double rss = StatusMb("VmRSS:");
  if (StatusMb("VmHWM:") > rss + 1.0) {
    std::fprintf(stderr, "perfbench: could not reset VmHWM; peak_rss_mb "
                         "includes input generation\n");
  }
  return rss;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<int64_t, int64_t> StealJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t v = 0, total = 0, steal = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
      have_seconds = args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && have_seed &&
         have_seconds && (args->trace == 0 || args->trace == 1);
}

/// One executed operation, as the client saw it.
struct Sample {
  bool insert = false;
  double ms = 0.0;  ///< Submit -> Await return, or the INSERT's duration.
  double queue_ms = 0.0;
  int64_t rows = 0;  ///< Insert: rows appended.
  snowprune::PruningStats stats;
};

/// The closed-loop client: runs operations, keeps their answers for the
/// reference check, and times only the program.
class Client {
 public:
  Client(Workload* w, Env* env) : w_(w), env_(env) {}

  /// Runs one operation. For a query, `keep` and `handle_out`, when given,
  /// receive its result and handle (the traced run reads both).
  Sample Run(const Op& op, QueryResult* keep = nullptr,
             QueryService::Handle* handle_out = nullptr) {
    Sample s;
    s.insert = op.insert;
    if (op.insert) {
      const double c0 = ThreadCpuMs();
      Batch batch = w_->InsertBatch(op.batch);
      client_cpu_ms_ += ThreadCpuMs() - c0;
      const auto t0 = Clock::now();
      ApplyInsert(batch, env_->catalog.get(), env_->cache.get());
      s.ms = Seconds(t0, Clock::now()) * 1e3;
      s.rows = static_cast<int64_t>(batch.rows.size());
      Record(op, Answer{true, "", 0, 0, {}});
      return s;
    }
    const auto t0 = Clock::now();
    auto handle = env_->service->Submit(op.plan);
    snowprune::Result<QueryResult> r =
        handle.ok() ? handle.value().Await()
                    : snowprune::Result<QueryResult>(handle.status());
    s.ms = Seconds(t0, Clock::now()) * 1e3;
    const double c0 = ThreadCpuMs();
    Answer a;
    if (r.ok()) {
      s.queue_ms = handle.value().queue_ms();
      s.stats = r.value().stats;
      a = Digest(op, r.value());
      if (a.ok && a.rows > 0 && a.rows <= kMaxSampleRows &&
          !sampled_[static_cast<int>(op.check)]) {
        sampled_[static_cast<int>(op.check)] = true;
        QueryResult copy;
        copy.schema = r.value().schema;
        copy.rows = r.value().rows;
        samples_.emplace_back(ops_.size(), std::move(copy));
      }
      if (keep != nullptr) *keep = std::move(r).value();
      if (handle_out != nullptr) *handle_out = handle.value();
    } else {
      a.error = r.status().ToString();
    }
    Record(op, std::move(a));
    client_cpu_ms_ += ThreadCpuMs() - c0;
    return s;
  }

  Op NextOp() {
    const double c0 = ThreadCpuMs();
    Op op = w_->Next();
    client_cpu_ms_ += ThreadCpuMs() - c0;
    return op;
  }

  void Forget() {
    ops_.clear();
    answers_.clear();
    samples_.clear();
    for (bool& b : sampled_) b = false;
  }

  double client_cpu_ms() const { return client_cpu_ms_; }
  const std::vector<Op>& ops() const { return ops_; }
  const std::vector<Answer>& answers() const { return answers_; }
  const std::vector<std::pair<size_t, QueryResult>>& samples() const {
    return samples_;
  }

 private:
  void Record(const Op& op, Answer a) {
    ops_.push_back(op);
    answers_.push_back(std::move(a));
  }

  Workload* w_;
  Env* env_;
  double client_cpu_ms_ = 0.0;
  std::vector<Op> ops_;
  std::vector<Answer> answers_;
  std::vector<std::pair<size_t, QueryResult>> samples_;
  bool sampled_[3] = {false, false, false};
};

/// Builds the program's state: ingest, register, start the service, warm
/// up. Returns the wall seconds it took.
double SetUp(Workload* w, Env* env, Client* client) {
  const auto t0 = Clock::now();
  env->catalog = std::make_unique<Catalog>();
  w->Load(env);
  env->ingest_s = Seconds(t0, Clock::now());
  env->service =
      std::make_unique<QueryService>(env->catalog.get(), w->ServiceConfig(env));
  w->Restart(*env->catalog);
  client->Forget();
  for (size_t i = 0; i < w->warmup_ops(); ++i) client->Run(client->NextOp());
  const double seconds = Seconds(t0, Clock::now());
  if (w->replay_after_warmup()) w->Restart(*env->catalog);
  return seconds;
}

/// qps as the median over equal groups of consecutive operations, each
/// group's rate being its queries over the program time of its operations.
double GroupQps(const std::vector<Sample>& samples) {
  const size_t groups = std::min(kQpsGroups, samples.size());
  if (groups == 0) return 0.0;
  StatsCollector rates;
  for (size_t g = 0; g < groups; ++g) {
    const size_t lo = samples.size() * g / groups;
    const size_t hi = samples.size() * (g + 1) / groups;
    double ms = 0.0;
    int64_t queries = 0;
    for (size_t i = lo; i < hi; ++i) {
      ms += samples[i].ms;
      if (!samples[i].insert) ++queries;
    }
    if (ms > 0) rates.Add(static_cast<double>(queries) / (ms / 1e3));
  }
  return rates.empty() ? 0.0 : rates.Median();
}

/// Runs operations until `seconds` have passed and at least `min_queries`
/// queries completed (bounded by kHardStopSeconds). `rss_mb`, when given,
/// receives the peak RSS (VmHWM) as the `min_queries`-th query completes: a
/// fixed amount of work, whatever the host's speed.
std::vector<Sample> Measure(Client* client, double seconds,
                            size_t min_queries,
                            const std::function<Sample(const Op&)>& run,
                            double* rss_mb = nullptr) {
  std::vector<Sample> samples;
  size_t queries = 0;
  const auto t0 = Clock::now();
  for (;;) {
    const double elapsed = Seconds(t0, Clock::now());
    if ((elapsed >= seconds && queries >= min_queries) ||
        elapsed >= kHardStopSeconds) {
      break;
    }
    const Op op = client->NextOp();
    samples.push_back(run(op));
    if (!op.insert && ++queries == min_queries && rss_mb != nullptr) {
      *rss_mb = StatusMb("VmHWM:");
    }
  }
  return samples;
}

/// What the client saw of a set of operations: the timing figures that
/// vary too much with the host to be end-to-end metrics (see README.md).
struct ClientFigures {
  double qps = 0.0, p50_ms = 0.0, p95_ms = 0.0, cpu_ms_per_query = 0.0;
  size_t queries = 0, beyond_p95 = 0;
};

ClientFigures Figures(const std::vector<Sample>& samples, double cpu_ms) {
  StatsCollector latency;
  for (const Sample& s : samples) {
    if (!s.insert) latency.Add(s.ms);
  }
  ClientFigures f;
  if (latency.empty()) return f;
  f.queries = latency.count();
  f.qps = GroupQps(samples);
  f.p50_ms = latency.Median();
  f.p95_ms = latency.Percentile(95);
  f.cpu_ms_per_query = cpu_ms / static_cast<double>(f.queries);
  for (double v : latency.samples()) f.beyond_p95 += v > f.p95_ms ? 1 : 0;
  return f;
}

void PrintFigures(const char* what, const ClientFigures& f) {
  std::printf(
      "%s: %zu queries, qps %.4f, latency p50 %.4f ms, p95 %.4f ms (%zu "
      "beyond p95), cpu %.4f ms/query\n",
      what, f.queries, f.qps, f.p50_ms, f.p95_ms, f.beyond_p95,
      f.cpu_ms_per_query);
}

std::string UnitOf(const std::string& metric) {
  auto has = [&](const char* s) {
    return metric.find(s) != std::string::npos;
  };
  if (has("_ratio") || has("_share")) return "ratio";
  if (has("_ms")) return "ms";
  if (has("_us")) return "us";
  if (has("_ns") || has("ns_per")) return "ns";
  if (metric.size() > 2 && metric.compare(metric.size() - 2, 2, "_s") == 0) {
    return "s";
  }
  return "count";
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<std::pair<std::string, std::pair<double,
                                                                  std::string>>>&
                   metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].second.first);
    out += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload prod_mix|scan_heavy|"
                 "dashboard_dml --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const auto run_start = Clock::now();
  w->MakeInputs(args.seed);
  std::printf("workload %s, seed %llu: inputs generated in %.3f s\n",
              w->name(), static_cast<unsigned long long>(args.seed),
              Seconds(run_start, Clock::now()));

  Env env;
  Client client(w.get(), &env);
  auto run_plain = [&](const Op& op) { return client.Run(op); };

  // ---- Set-up. setup_s is the median CPU time (user + sys, all threads)
  // of several set-ups: this one, and more on scratch instances after the
  // timed phase, so that peak_rss_mb is what exactly one set-up and the
  // timed queries add to the inputs. ----
  StatsCollector setup_s, setup_wall_s;
  auto timed_setup = [&](Env* e, Client* c) {
    const double cpu0 = ProcessCpuMs();
    setup_wall_s.Add(SetUp(w.get(), e, c));
    setup_s.Add((ProcessCpuMs() - cpu0) / 1e3);
  };
  const double baseline_mb = RssBaselineMb();
  timed_setup(&env, &client);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<Sample> timed;
  const auto steal0 = StealJiffies();
  LayerReport layers;
  if (args.trace == 0) {
    const double cpu0 = ProcessCpuMs();
    const double client0 = client.client_cpu_ms();
    double rss = 0.0;
    timed = Measure(&client, args.seconds, w->count_queries(), run_plain, &rss);
    const double cpu_ms =
        ProcessCpuMs() - cpu0 - (client.client_cpu_ms() - client0);
    if (rss == 0.0) rss = StatusMb("VmHWM:");  // Stopped before the prefix.
    int64_t counted = 0, scanned = 0, pruned = 0, total = 0;
    for (const Sample& s : timed) {
      if (s.insert || counted == static_cast<int64_t>(w->count_queries())) {
        continue;
      }
      ++counted;
      scanned += s.stats.scanned_partitions;
      pruned += s.stats.TotalPruned();
      total += s.stats.total_partitions;
    }
    PrintFigures("timed", Figures(timed, cpu_ms));
    std::printf("counts over the first %lld timed queries: %lld of %lld "
                "partitions scanned, %lld pruned\n",
                static_cast<long long>(counted),
                static_cast<long long>(scanned),
                static_cast<long long>(total), static_cast<long long>(pruned));
    metrics = {
        {"partitions_scanned_per_query",
         {static_cast<double>(scanned) / static_cast<double>(counted),
          "count"}},
        {"pruned_ratio",
         {static_cast<double>(pruned) / static_cast<double>(total), "ratio"}},
        {"peak_rss_mb", {rss - baseline_mb, "MB"}},
    };
  } else {
    // Alternating blocks on an untraced service and on one that traces
    // every query; the difference in qps is the tracing overhead. Counters
    // and loads are read around the traced blocks only.
    snowprune::service::QueryServiceConfig config = w->ServiceConfig(&env);
    config.trace_every = 1;
    std::unique_ptr<QueryService> other =
        std::make_unique<QueryService>(env.catalog.get(), config);
    auto run_traced = [&](const Op& op) {
      QueryResult result;
      QueryService::Handle handle;
      Sample s = client.Run(op, &result, &handle);
      if (op.insert) {
        layers.AddInsert(s.ms, s.rows);
      } else if (handle.trace() != nullptr) {
        layers.AddQuery(op, s.ms, s.queue_ms, handle.trace(),
                        handle.profile().get(), result, *env.catalog);
      }
      return s;
    };
    constexpr int kBlocks = 8;
    std::vector<Sample> plain;
    double plain_cpu_ms = 0.0;
    std::map<std::string, int64_t> deltas;
    for (int b = 0; b < kBlocks; ++b) {
      const double block_s = args.seconds / kBlocks;
      if (b % 2 == 0) {
        const double cpu0 = ProcessCpuMs();
        const double client0 = client.client_cpu_ms();
        for (const Sample& s : Measure(&client, block_s, 1, run_plain)) {
          plain.push_back(s);
        }
        plain_cpu_ms +=
            ProcessCpuMs() - cpu0 - (client.client_cpu_ms() - client0);
        continue;
      }
      std::swap(env.service, other);
      std::map<std::string, int64_t> before = ReadCounters();
      before["storage.loads"] = env.catalog->TotalLoads();
      before["storage.loaded_rows"] = env.catalog->TotalLoadedRows();
      for (const Sample& s : Measure(&client, block_s, 1, run_traced)) {
        timed.push_back(s);
      }
      std::map<std::string, int64_t> after = ReadCounters();
      after["storage.loads"] = env.catalog->TotalLoads();
      after["storage.loaded_rows"] = env.catalog->TotalLoadedRows();
      for (const auto& [name, v] : after) deltas[name] += v - before[name];
      std::swap(env.service, other);
    }
    other.reset();
    layers.AddCounters(deltas);
    layers.SetSetup(env.ingest_s, env.ingested_rows);
    layers.SetOverhead(GroupQps(plain), GroupQps(timed));
    const ClientFigures f = Figures(plain, plain_cpu_ms);
    PrintFigures("untraced blocks", f);
    metrics = {{"client.qps", {f.qps, "1/s"}},
               {"client.latency_p50_ms", {f.p50_ms, "ms"}},
               {"client.latency_p95_ms", {f.p95_ms, "ms"}},
               {"client.cpu_ms_per_query", {f.cpu_ms_per_query, "ms"}}};
    for (const auto& [name, value] : layers.Metrics()) {
      metrics.push_back({name, {value, UnitOf(name)}});
    }
  }
  const auto steal1 = StealJiffies();
  const double steal =
      steal1.second > steal0.second
          ? static_cast<double>(steal1.first - steal0.first) /
                static_cast<double>(steal1.second - steal0.second)
          : 0.0;

  const size_t repeats = args.trace ? 1 : w->setup_repeats();
  for (size_t r = 1; r < repeats; ++r) {
    Env scratch;
    Client scratch_client(w.get(), &scratch);
    timed_setup(&scratch, &scratch_client);
  }
  std::printf("set-up: median %.4f s CPU, %.4f s wall over %zu (ingest "
              "%.4f s wall, %lld rows); %.1f MB resident before\n",
              setup_s.Median(), setup_wall_s.Median(), repeats, env.ingest_s,
              static_cast<long long>(env.ingested_rows), baseline_mb);
  if (args.trace == 0) metrics.push_back({"setup_s", {setup_s.Median(), "s"}});

  // ---- Correctness: every operation against the reference engine. ----
  Env reference;
  Catalog* reference_catalog = env.catalog.get();
  if (w->tiles() != nullptr) {
    // The tables grew in place; the reference starts from fresh copies.
    reference.catalog = std::make_unique<Catalog>();
    w->Load(&reference);
    reference_catalog = reference.catalog.get();
  }
  const auto c0 = Clock::now();
  const CheckOutcome check = CheckAnswers(*w, reference_catalog, client.ops(),
                                          client.answers(), client.samples());
  const int64_t attempted = static_cast<int64_t>(client.ops().size());
  std::printf(
      "check: %lld answers compared with the reference engine in %.2f s, "
      "%lld wrong; corrupted answers caught: %s%s%s\n",
      static_cast<long long>(check.checked), Seconds(c0, Clock::now()),
      static_cast<long long>(check.wrong), check.self_check_ok ? "yes" : "NO",
      check.first_error.empty() ? "" : "; first: ",
      check.first_error.c_str());
  std::printf("error_ratio: %.6f (%lld of %lld operations)\n",
              static_cast<double>(check.wrong) / static_cast<double>(attempted),
              static_cast<long long>(check.wrong),
              static_cast<long long>(attempted));
  if (args.trace == 1) std::printf("%s", layers.Text(w->name()).c_str());
  std::printf(
      "host: nproc=%ld cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
      "steal_share=%.4f run_s=%.1f\n",
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), PERFBENCH_COMPILER,
      PERFBENCH_FLAGS, steal, Seconds(run_start, Clock::now()));
  for (const auto& [name, v] : metrics) {
    std::printf("metric %-34s %16.6f %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  PrintJson(check.wrong == 0 && check.self_check_ok, attempted, check.wrong,
            metrics);
  return 0;
}
