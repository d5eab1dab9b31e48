#ifndef SNOWPRUNE_BENCH_BENCH_UTIL_H_
#define SNOWPRUNE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/stats_collector.h"
#include "storage/catalog.h"
#include "workload/table_gen.h"

namespace snowprune {
namespace bench {

/// Shared command-line options for the population benches.
///   --smoke        tiny tables / few queries: a compile-and-run check for
///                  the perf-only paths (CI runs every bench this way under
///                  -Werror and TSan, where full-size runs would time out).
///   --json[=PATH]  additionally emit machine-readable results (query class,
///                  ns/row, pruning ratios) to PATH, or to stdout when no
///                  path is given — the BENCH_*.json perf trajectory files
///                  are produced from this.
struct BenchOptions {
  bool smoke = false;
  bool json = false;
  std::string json_path;  ///< Empty: print the JSON to stdout.
  /// --trace-sample=N: attach a per-query Trace to every N-th execution
  /// (1 = all, 0 = tracing off). The overhead-regression CI step compares a
  /// --trace-sample=1 run against a plain run of the same bench.
  size_t trace_sample = 0;
};

inline BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opts.json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      opts.json = true;
      opts.json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      opts.trace_sample = static_cast<size_t>(std::strtoul(argv[i] + 15,
                                                           nullptr, 10));
    } else {
      std::fprintf(
          stderr,
          "unknown option %s (expected --smoke, --json[=PATH], "
          "--trace-sample=N)\n",
          argv[i]);
    }
  }
  return opts;
}

/// Minimal JSON emitter for the --json bench mode. Call Key() before each
/// value or container; strings are emitted verbatim (keys and values used
/// here are identifier-like, no escaping needed).
class JsonWriter {
 public:
  JsonWriter() { out_ = "{"; }

  JsonWriter& Key(const std::string& k) {
    MaybeComma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    return *this;
  }
  JsonWriter& String(const std::string& v) {
    MaybeComma();
    out_ += '"';
    out_ += v;
    out_ += '"';
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    MaybeComma();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Number(double v) {
    MaybeComma();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    out_ += buf;
    return *this;
  }
  /// Splices a pre-rendered JSON value (e.g. MetricsRegistry::SnapshotJson
  /// or Trace::ToJson output) in verbatim as the next value.
  JsonWriter& Raw(const std::string& json) {
    MaybeComma();
    out_ += json;
    return *this;
  }
  JsonWriter& BeginObject() {
    MaybeComma();
    out_ += '{';
    return *this;
  }
  JsonWriter& EndObject() {
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    MaybeComma();
    out_ += '[';
    return *this;
  }
  JsonWriter& EndArray() {
    out_ += ']';
    return *this;
  }

  /// Closes the root object and writes it per the options (file or stdout).
  void Write(const BenchOptions& opts) {
    out_ += "}\n";
    if (!opts.json_path.empty()) {
      if (std::FILE* f = std::fopen(opts.json_path.c_str(), "w")) {
        std::fputs(out_.c_str(), f);
        std::fclose(f);
        std::printf("json results written to %s\n", opts.json_path.c_str());
        return;
      }
      std::fprintf(stderr, "cannot write %s; dumping to stdout\n",
                   opts.json_path.c_str());
    }
    std::printf("%s", out_.c_str());
  }

 private:
  void MaybeComma() {
    if (out_.empty()) return;
    const char last = out_.back();
    if (last != '{' && last != '[' && last != ':') out_ += ',';
  }

  std::string out_;
};

/// Prints the standard figure/table banner.
inline void Banner(const char* artifact, const char* title,
                   const char* paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", artifact, title);
  std::printf("paper reference: %s\n", paper_reference);
  std::printf("==============================================================\n");
}

/// Renders a Figure 1 / Figure 8 style box-plot row.
inline void PrintBoxRow(const char* label, const StatsCollector& c) {
  if (c.empty()) {
    std::printf("%-16s (no eligible queries)\n", label);
    return;
  }
  std::printf("%-16s %s  mean=%5.1f%% median=%5.1f%% n=%zu\n", label,
              c.BoxPlotRow(0.0, 1.0, 51).c_str(), 100.0 * c.Mean(),
              100.0 * c.Median(), c.count());
}

/// Prints a CDF as "percentile-of-queries -> value" rows (the paper's
/// Figure 4/9 axes).
inline void PrintCdfTable(const char* label, const StatsCollector& c,
                          int points = 20, double scale = 100.0,
                          const char* unit = "%") {
  std::printf("# %s (%zu samples)\n", label, c.count());
  std::printf("%22s %14s\n", "percentile of queries", "value");
  for (int i = 0; i <= points; ++i) {
    double p = 100.0 * i / points;
    std::printf("%21.1f%% %13.2f%s\n", p, c.empty() ? 0.0 : scale * c.Percentile(p),
                unit);
  }
}

/// The standard mixed-layout catalog used by the population benches:
/// three large probe tables spanning the layout spectrum plus two small
/// build tables. `scale` multiplies partition counts.
inline std::unique_ptr<Catalog> StandardCatalog(double scale = 1.0,
                                                uint64_t seed = 42) {
  auto catalog = std::make_unique<Catalog>();
  auto add = [&](const char* name, workload::Layout layout, size_t partitions,
                 size_t rows, double null_fraction = 0.0) {
    workload::TableGenConfig cfg;
    cfg.name = name;
    cfg.layout = layout;
    cfg.num_partitions = static_cast<size_t>(partitions * scale);
    cfg.rows_per_partition = rows;
    cfg.null_fraction = null_fraction;
    cfg.seed = seed++;
    Status s = catalog->RegisterTable(workload::SyntheticTable(cfg));
    if (!s.ok()) std::abort();
  };
  add("probe_sorted", workload::Layout::kSorted, 200, 500);
  add("probe_clustered", workload::Layout::kClustered, 200, 500, 0.02);
  add("probe_random", workload::Layout::kRandom, 80, 500);
  add("build_small", workload::Layout::kRandom, 2, 1500);
  add("build_tiny", workload::Layout::kClustered, 1, 800);
  return catalog;
}

}  // namespace bench
}  // namespace snowprune

#endif  // SNOWPRUNE_BENCH_BENCH_UTIL_H_
