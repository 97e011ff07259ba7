#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string qdmd_path;  // Only the serve_* workloads launch it.
  std::string trace_dir;  // Where the traced run writes its spans.
  std::string self_path;  // argv[0], re-executed by the set-up probes.
};

/// Named metrics in print order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

/// What a workload hands back to main for the final JSON line.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Sets every per-layer metric to 0 with its unit, so a traced run reports
/// a layer its workload never enters as zero work done there.
void ZeroPerLayerMetrics(Metrics* metrics);

/// Short metric label of a registry backend name ("sa", "embedded", ...).
std::string BackendLabel(const std::string& backend);

/// Child processes FailCheck must stop before the run exits.
void RegisterChild(int pid);
void UnregisterChild(int pid);

/// A correctness check failed: prints the reason to stderr, kills and
/// reaps every registered child, and exits with status 3 before any metric
/// is printed.
[[noreturn]] void FailCheck(const std::string& what);

/// Prints one human-readable line to stdout (never the last line).
void Note(const std::string& line);

/// Threads that generate load: the online cores, at most 4.
int LoadThreads();

/// splitmix64: derives independent sub-seeds from the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// The set-up probe run in a fresh process: creates every backend in
/// `backends` once through SolverRegistry::Create and exits.
int RunSetupProbe(const std::vector<std::string>& backends);

/// Times `count` fresh processes of `args.self_path --setup-probe <list>`
/// from fork until exit and returns the median in seconds.
double MedianProbeSetupSeconds(const Args& args,
                               const std::vector<std::string>& backends,
                               int count);

RunResult RunBatch(const Args& args);

/// The served path for the traced batch_qopt run: starts qdmd, sends it
/// fixed-rate jobs, replays them in process, checks them, and sets the
/// net.*, generator.*, wire.*, service.* and trace.wire_share_of_latency
/// per-layer metrics. Adds its jobs to `result`'s attempted and failed.
void MeasureServedLayers(const Args& args, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
