// perfbench — the repository benchmark program. One run measures one
// workload for a fixed number of seconds and prints, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <batch_qopt|batch_gate>
//             --seed N --seconds S --trace 0|1 --qdmd <path to qdmd>
//             [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (see perfbench/README.md). The
// traced batch_qopt run also serves jobs through qdmd, so it needs --qdmd.
// Any failed correctness check exits non-zero before a metric is printed.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"
#include "qdm/anneal/solver.h"

namespace perfbench {

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) FailCheck("metric " + name + " is not finite");
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

void ZeroPerLayerMetrics(Metrics* metrics) {
  static const char* const kPerLayer[][2] = {
      {"net.submit_rtt_ms.p50", "ms"},
      {"net.submit_rtt_ms.p99", "ms"},
      {"net.wait_rtt_ms.p50", "ms"},
      {"net.wait_rtt_ms.p99", "ms"},
      {"net.transport_ms.p50", "ms"},
      {"net.connections_per_job", "count"},
      {"net.server_threads", "count"},
      {"net.server_vmsize_mb", "MB"},
      {"net.shutdown_ms", "ms"},
      {"generator.lateness_p99_ms", "ms"},
      {"wire.encode_request_us", "us"},
      {"wire.decode_request_us", "us"},
      {"wire.encode_results_us", "us"},
      {"wire.decode_results_us", "us"},
      {"wire.request_bytes", "bytes"},
      {"wire.response_bytes", "bytes"},
      {"service.queue_wait_ms.p50", "ms"},
      {"service.queue_wait_ms.p99", "ms"},
      {"service.busy_share", "share"},
      {"service.completed", "count"},
      {"service.rejected", "count"},
      {"registry.create_us.sa", "us"},
      {"registry.create_us.tabu", "us"},
      {"registry.create_us.adaptive", "us"},
      {"registry.create_us.embedded", "us"},
      {"registry.create_us.qaoa", "us"},
      {"registry.create_us.grover_min", "us"},
      {"registry.create_us.noisy_qaoa", "us"},
      {"batch.parallelism", "ratio"},
      {"batch.t1_instances_per_s", "1/s"},
      {"batch.scaling_efficiency", "share"},
      {"backend_cache.hits", "count"},
      {"backend_cache.constructions", "count"},
      {"anneal.solve_ms.sa", "ms"},
      {"anneal.solve_ms.tabu", "ms"},
      {"anneal.solve_ms.adaptive", "ms"},
      {"anneal.solve_ms.embedded", "ms"},
      {"anneal.flips_per_s.sa", "1/s"},
      {"anneal.iters_per_s.tabu", "1/s"},
      {"anneal.optimal_share.sa", "share"},
      {"anneal.optimal_share.tabu", "share"},
      {"anneal.optimal_share.adaptive", "share"},
      {"anneal.optimal_share.embedded", "share"},
      {"anneal.feasible_share.sa", "share"},
      {"anneal.feasible_share.tabu", "share"},
      {"anneal.feasible_share.adaptive", "share"},
      {"anneal.feasible_share.embedded", "share"},
      {"adaptive.commit_share", "share"},
      {"qopt.encode_us.mqo", "us"},
      {"qopt.encode_us.txn", "us"},
      {"qopt.decode_us.mqo", "us"},
      {"qopt.decode_us.txn", "us"},
      {"qopt.qubo_terms.mqo", "count"},
      {"qopt.qubo_terms.txn", "count"},
      {"algo.solve_ms.qaoa", "ms"},
      {"algo.solve_ms.grover_min", "ms"},
      {"algo.solve_ms.noisy_qaoa", "ms"},
      {"sim.gate_ns_per_amp", "ns"},
      {"sim.noise_fidelity_mean", "share"},
      {"host.online_cores", "count"},
      {"host.cpu_per_wall", "ratio"},
      {"host.steal_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.wire_share_of_latency", "share"},
      {"trace.solve_share_of_latency", "share"},
      {"trace.algo_share_of_batch", "share"},
  };
  for (const auto& entry : kPerLayer) metrics->Set(entry[0], 0.0, entry[1]);
}

std::string BackendLabel(const std::string& backend) {
  if (backend == "simulated_annealing") return "sa";
  if (backend == "tabu_search") return "tabu";
  if (backend.rfind("adaptive:", 0) == 0) return "adaptive";
  if (backend.rfind("embedded:", 0) == 0) return "embedded";
  if (backend.rfind("noisy:", 0) == 0) return "noisy_qaoa";
  return backend;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

std::mutex children_mutex;
std::vector<int> children;  // Guarded by children_mutex.

}  // namespace

void RegisterChild(int pid) {
  std::lock_guard<std::mutex> lock(children_mutex);
  children.push_back(pid);
}

void UnregisterChild(int pid) {
  std::lock_guard<std::mutex> lock(children_mutex);
  children.erase(std::remove(children.begin(), children.end(), pid),
                 children.end());
}

void FailCheck(const std::string& what) {
  {
    std::lock_guard<std::mutex> lock(children_mutex);
    for (int pid : children) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    children.clear();
  }
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
               what.c_str());
  std::exit(3);
}

void Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

int LoadThreads() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::max(1L, std::min(cores, 4L)));
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int RunSetupProbe(const std::vector<std::string>& backends) {
  for (const std::string& name : backends) {
    auto solver = qdm::anneal::SolverRegistry::Global().Create(name);
    if (!solver.ok()) {
      std::fprintf(stderr, "perfbench: Create(%s): %s\n", name.c_str(),
                   solver.status().ToString().c_str());
      return 1;
    }
  }
  return 0;
}

double MedianProbeSetupSeconds(const Args& args,
                               const std::vector<std::string>& backends,
                               int count) {
  std::vector<std::string> argv_strings = {args.self_path, "--setup-probe"};
  argv_strings.insert(argv_strings.end(), backends.begin(), backends.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(&s[0]);
  argv.push_back(nullptr);

  std::vector<double> seconds;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    const pid_t pid = fork();
    if (pid < 0) FailCheck("fork() for the set-up probe failed");
    if (pid == 0) {
      execv(argv[0], argv.data());
      _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      FailCheck("set-up probe process failed");
    }
    seconds.push_back(MillisBetween(start, Clock::now()) / 1000.0);
  }
  return Median(seconds);
}

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<batch_qopt|batch_gate> --seed N --seconds S --trace 0|1 "
               "--qdmd PATH [--trace-dir DIR]\n",
               message);
  std::exit(2);
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const auto& [name, value] : result.metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value.first,
                value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Args;
  if (argc >= 2 && std::strcmp(argv[1], "--setup-probe") == 0) {
    return perfbench::RunSetupProbe(
        std::vector<std::string>(argv + 2, argv + argc));
  }

  Args args;
  args.self_path = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) perfbench::Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--qdmd") {
      args.qdmd_path = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      perfbench::Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1 || args.seconds > 600) {
    perfbench::Usage("--seconds must be in [1, 600]");
  }

  if (args.workload != "batch_qopt" && args.workload != "batch_gate") {
    perfbench::Usage("unknown workload");
  }
  if (args.trace && args.workload == "batch_qopt" && args.qdmd_path.empty()) {
    perfbench::Usage("the traced batch_qopt run needs --qdmd");
  }
  perfbench::PrintResult(perfbench::RunBatch(args));
  return 0;
}
