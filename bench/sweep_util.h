// Shared scaffolding for the batch fan-out sweeps (bench_mqo_speedup,
// bench_txn_scheduling): flag parsing, the thread-count timing loop with its
// identical-results assertion, the report table, and the perf-gate JSON.
// Keeping this in one place means the sweep protocol and the JSON metric
// schema the CI gate consumes cannot drift between benches.

#ifndef QDM_BENCH_SWEEP_UTIL_H_
#define QDM_BENCH_SWEEP_UTIL_H_

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "qdm/common/check.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"

namespace qdm_bench {

struct SweepFlags {
  bool sweep_only = false;          // --sweep-only: skip the paper tables.
  const char* json_path = nullptr;  // --json PATH: write perf-gate metrics.
};

inline SweepFlags ParseSweepFlags(int argc, char** argv) {
  SweepFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-only") == 0) {
      flags.sweep_only = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      flags.json_path = argv[++i];
    }
  }
  return flags;
}

/// Accumulates metrics across several sweeps (e.g. one RunThreadSweep per
/// hardware topology) and writes them as one perf-gate JSON document. Two
/// classes of metric: Add() for throughput numbers the gate compares as
/// ratios (only regressions fail), AddExact() for deterministic quantities
/// (chain lengths, break fractions) the gate compares for EQUALITY — any
/// drift, in either direction, is a behavior change and fails CI. Keeps
/// insertion order; names must be unique per run (the gate keys on them).
class MetricsJson {
 public:
  void Add(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  void AddExact(const std::string& name, double value) {
    exact_metrics_.emplace_back(name, value);
  }

  std::string ToString() const {
    std::string json = "{\n";
    // Throughput metrics are rounded for readability; exact metrics keep
    // full double precision — the gate compares them for equality, and
    // quantizing here would silently weaken that contract.
    json += Section("metrics", metrics_, /*full_precision=*/false,
                    !exact_metrics_.empty());
    if (!exact_metrics_.empty()) {
      json += Section("exact_metrics", exact_metrics_,
                      /*full_precision=*/true, false);
    }
    json += "}\n";
    return json;
  }

  void WriteTo(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    QDM_CHECK(f != nullptr) << "cannot write " << path;
    std::fputs(ToString().c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }

 private:
  static std::string Section(
      const char* key, const std::vector<std::pair<std::string, double>>& kv,
      bool full_precision, bool trailing_comma) {
    std::string json = qdm::StrFormat("  \"%s\": {\n", key);
    for (size_t i = 0; i < kv.size(); ++i) {
      json += qdm::StrFormat("    \"%s\": ", kv[i].first.c_str());
      json += full_precision ? qdm::StrFormat("%.17g", kv[i].second)
                             : qdm::StrFormat("%.3f", kv[i].second);
      json += i + 1 < kv.size() ? ",\n" : "\n";
    }
    json += qdm::StrFormat("  }%s\n", trailing_comma ? "," : "");
    return json;
  }

  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, double>> exact_metrics_;
};

/// CPU time consumed so far by every thread of this process, in ms.
inline double ProcessCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * ts.tv_nsec;
}

/// Runs `solve(threads)` for threads in {1, 2, 4, 8}, timing each pass and
/// QDM_CHECKing results equal (`equal`) to the 1-thread reference — the
/// batch determinism guarantee, asserted at bench runtime. Prints a
/// `header`, the online core count and a table (items/s, speedup vs 1
/// thread, and the pass's effective parallelism: process CPU time ÷ wall
/// time, which a preempted or shared host pushes below the thread count;
/// table output only, never a metric) and records
/// "<metric_prefix>_t<T>" -> items_per_second metrics for
/// scripts/perf_gate.py: into `collector` when one is given (the caller
/// aggregates several sweeps into one file), otherwise into a standalone
/// JSON file at `flags.json_path` (when set). Returns the 1-thread
/// reference batch so callers can derive further metrics from it.
template <typename Batch>
inline Batch RunThreadSweep(
    const char* header, int num_items, const char* items_column,
    const std::function<Batch(int threads)>& solve,
    const std::function<bool(const Batch&, const Batch&)>& equal,
    const char* metric_prefix, const SweepFlags& flags,
    MetricsJson* collector = nullptr) {
  qdm::TablePrinter table({"threads", "batch", "total ms", items_column,
                           "speedup", "cpu/wall", "identical"});
  Batch reference;
  double base_items_per_s = 0.0;
  int diverged_at = 0;  // 0 = all thread counts matched the reference.
  MetricsJson local;
  MetricsJson* metrics = collector != nullptr ? collector : &local;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const int threads = thread_counts[t];
    const double cpu_start_ms = ProcessCpuMs();
    const auto start = std::chrono::steady_clock::now();
    Batch batch = solve(threads);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    const double cpu_ms = ProcessCpuMs() - cpu_start_ms;
    const double items_per_s = 1000.0 * num_items / ms;
    bool identical = true;
    if (threads == 1) {
      reference = batch;
      base_items_per_s = items_per_s;
    } else {
      identical = equal(batch, reference);
      if (!identical && diverged_at == 0) diverged_at = threads;
    }
    table.AddRow({qdm::StrFormat("%d", threads),
                  qdm::StrFormat("%d", num_items),
                  qdm::StrFormat("%.1f", ms),
                  qdm::StrFormat("%.1f", items_per_s),
                  qdm::StrFormat("%.2fx", items_per_s / base_items_per_s),
                  qdm::StrFormat("%.2f", cpu_ms / ms),
                  identical ? "yes" : "NO"});
    metrics->Add(qdm::StrFormat("%s_t%d", metric_prefix, threads),
                 items_per_s);
  }
  // Print the full table before enforcing determinism, so a violation still
  // leaves the per-thread evidence on screen; abort before writing JSON so
  // the perf gate never ingests numbers from a broken run.
  std::printf("%s\nonline cores: %ld\n%s\n", header,
              sysconf(_SC_NPROCESSORS_ONLN), table.ToString().c_str());
  QDM_CHECK(diverged_at == 0) << metric_prefix << " results diverged at "
                              << diverged_at << " threads";
  if (collector == nullptr && flags.json_path != nullptr) {
    local.WriteTo(flags.json_path);
  }
  return reference;
}

}  // namespace qdm_bench

#endif  // QDM_BENCH_SWEEP_UTIL_H_
