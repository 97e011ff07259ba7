// The batch_* workloads: closed-loop, in-process optimizer batches through
// the qopt entry points (QuboPipeline -> SolveBatchParallel -> backends).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "host.h"
#include "qdm/anneal/backend_cache.h"
#include "qdm/anneal/solver.h"
#include "qdm/circuit/gates.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/mqo.h"
#include "qdm/qopt/txn_scheduling.h"
#include "qdm/sim/statevector.h"
#include "trace.h"

namespace perfbench {
namespace {

using qdm::Rng;
using qdm::anneal::SolverOptions;
using qdm::qopt::MqoProblem;
using qdm::qopt::MqoSolution;
using qdm::qopt::Schedule;
using qdm::qopt::TxnScheduleProblem;

constexpr int kSetupSamples = 51;
constexpr int kReads = 10;
constexpr int kSaSweeps = 200;      // simulated_annealing's default.
constexpr int kTabuIterations = 500;  // tabu_search's default.
// The 1-thread check and the decomposed-pipeline replay run every 4th call
// of the mix, which covers every backend and problem family.
constexpr size_t kSampleStride = 4;
// Calls per measured window at least, so that a slow host still gives the
// medians over passes five or more complete passes of the largest mix.
constexpr size_t kMinCalls = 500;

/// One SolveMqoBatch or SolveTxnScheduleEpochs call: a backend, its
/// problems with their reference optima, and a seed.
struct Call {
  std::string backend;
  bool mqo = true;
  std::vector<MqoProblem> mqo_problems;
  std::vector<MqoSolution> mqo_refs;
  std::vector<TxnScheduleProblem> txn_problems;
  std::vector<Schedule> txn_refs;
  SolverOptions options;

  size_t size() const {
    return mqo ? mqo_problems.size() : txn_problems.size();
  }
};

/// Decoded answers of one call.
struct Answers {
  std::vector<MqoSolution> mqo;
  std::vector<Schedule> txn;
};

bool SameMqo(const MqoSolution& a, const MqoSolution& b) {
  return a.plan_choice == b.plan_choice && a.cost == b.cost &&
         a.feasible == b.feasible;
}

bool SameSchedule(const Schedule& a, const Schedule& b) {
  return a.slot_of_txn == b.slot_of_txn && a.feasible == b.feasible &&
         a.conflicting_pairs_same_slot == b.conflicting_pairs_same_slot &&
         a.makespan == b.makespan;
}

bool SameAnswers(const Answers& a, const Answers& b) {
  if (a.mqo.size() != b.mqo.size() || a.txn.size() != b.txn.size()) {
    return false;
  }
  for (size_t i = 0; i < a.mqo.size(); ++i) {
    if (!SameMqo(a.mqo[i], b.mqo[i])) return false;
  }
  for (size_t i = 0; i < a.txn.size(); ++i) {
    if (!SameSchedule(a.txn[i], b.txn[i])) return false;
  }
  return true;
}

/// Runs one call through the public qopt batch entry point.
bool Execute(const Call& call, int threads, Answers* out) {
  if (call.mqo) {
    auto solved = qdm::qopt::SolveMqoBatch(call.mqo_problems, call.backend,
                                           call.options, 0.0, threads);
    if (!solved.ok()) return false;
    out->mqo = std::move(*solved);
  } else {
    auto solved = qdm::qopt::SolveTxnScheduleEpochs(
        call.txn_problems, call.backend, call.options, 0.0, 1.0, threads);
    if (!solved.ok()) return false;
    out->txn = std::move(*solved);
  }
  return true;
}

struct BatchWorkload {
  std::vector<std::string> backends;
  std::vector<Call> calls;  // One pass over the mix.
};

/// `num_threads` of every batch call: two, not every core. A call ends
/// when its slowest worker does, so on a guest whose vCPUs the host
/// preempts (steal time), each extra worker adds a chance to wait for a
/// preempted one, and the call times would measure the host's steal more
/// than the program.
int BatchThreads() { return std::min(2, LoadThreads()); }

/// Runs `work` for every index in [0, n) on LoadThreads() threads.
template <typename Fn>
void ParallelIndices(size_t n, Fn work) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < LoadThreads(); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        work(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// A transaction epoch whose conflict graph greedy coloring fits in the
/// 5 slots, so a conflict-free schedule exists.
TxnScheduleProblem MakeEpoch(int txns, int objects, Rng* rng) {
  while (true) {
    TxnScheduleProblem p =
        qdm::qopt::GenerateTxnSchedule(txns, objects, 2, 5, rng);
    if (qdm::qopt::GreedyColoringSchedule(p).makespan <= p.num_slots) return p;
  }
}

/// Generated problems with their exhaustive reference optima.
struct Pool {
  std::vector<MqoProblem> mqo;
  std::vector<MqoSolution> mqo_refs;
  std::vector<TxnScheduleProblem> txn;
  std::vector<Schedule> txn_refs;
};

/// Reference optima, computed from the generated inputs outside every
/// timed window and outside setup_s.
void SolveReferences(Pool* pool) {
  pool->mqo_refs.resize(pool->mqo.size());
  pool->txn_refs.resize(pool->txn.size());
  const size_t n_mqo = pool->mqo.size();
  ParallelIndices(n_mqo + pool->txn.size(), [&](size_t k) {
    if (k < n_mqo) {
      pool->mqo_refs[k] = qdm::qopt::ExhaustiveMqo(pool->mqo[k]);
    } else {
      pool->txn_refs[k - n_mqo] =
          qdm::qopt::ExhaustiveSchedule(pool->txn[k - n_mqo]);
    }
  });
}

void AddCalls(BatchWorkload* w, const std::string& backend, const Pool& pool,
              size_t batch, const SolverOptions& options, uint64_t seed) {
  for (size_t start = 0; start < pool.mqo.size(); start += batch) {
    const size_t end = std::min(pool.mqo.size(), start + batch);
    Call call;
    call.backend = backend;
    call.mqo = true;
    call.mqo_problems.assign(pool.mqo.begin() + start, pool.mqo.begin() + end);
    call.mqo_refs.assign(pool.mqo_refs.begin() + start,
                         pool.mqo_refs.begin() + end);
    call.options = options;
    call.options.seed = MixSeed(seed, 1000 + w->calls.size());
    w->calls.push_back(std::move(call));
  }
  for (size_t start = 0; start < pool.txn.size(); start += batch) {
    const size_t end = std::min(pool.txn.size(), start + batch);
    Call call;
    call.backend = backend;
    call.mqo = false;
    call.txn_problems.assign(pool.txn.begin() + start, pool.txn.begin() + end);
    call.txn_refs.assign(pool.txn_refs.begin() + start,
                         pool.txn_refs.begin() + end);
    call.options = options;
    call.options.seed = MixSeed(seed, 1000 + w->calls.size());
    w->calls.push_back(std::move(call));
  }
  w->backends.push_back(backend);
}

BatchWorkload MakeWorkload(const std::string& name, uint64_t seed) {
  BatchWorkload w;
  Rng rng(MixSeed(seed, 7));
  SolverOptions options;
  options.num_reads = kReads;
  if (name == "batch_qopt") {
    // 8 queries x 4 plans (32 variables) and 8-transaction epochs over 5
    // slots (40 variables); the embedded member gets instances of 20
    // variables, the most a pegasus:6 clique embedding holds.
    Pool pool;
    Pool small;
    for (int i = 0; i < 32; ++i) {
      pool.mqo.push_back(qdm::qopt::GenerateMqoProblem(8, 4, 0.3, &rng));
      pool.txn.push_back(MakeEpoch(8, 12, &rng));
    }
    for (int i = 0; i < 8; ++i) {
      small.mqo.push_back(qdm::qopt::GenerateMqoProblem(5, 4, 0.3, &rng));
      small.txn.push_back(MakeEpoch(4, 8, &rng));
    }
    SolveReferences(&pool);
    SolveReferences(&small);
    options.num_sweeps = kSaSweeps;
    options.max_iterations = kTabuIterations;
    AddCalls(&w, "simulated_annealing", pool, 8, options, seed);
    AddCalls(&w, "tabu_search", pool, 8, options, seed);
    // Batches of 16 so each fresh adaptive backend explores for its first
    // 8 instances and commits for the rest.
    AddCalls(&w, "adaptive:simulated_annealing+tabu_search", pool, 16,
             options, seed);
    AddCalls(&w, "embedded:simulated_annealing:pegasus:6", small, 8, options,
             seed);
  } else {
    // 4 queries x 2 plans: 8 qubits for the gate-based backends.
    Pool pool;
    for (int i = 0; i < 128; ++i) {
      pool.mqo.push_back(qdm::qopt::GenerateMqoProblem(4, 2, 0.4, &rng));
    }
    SolveReferences(&pool);
    for (const char* backend :
         {"qaoa", "grover_min", "noisy:depol@0.01:qaoa"}) {
      AddCalls(&w, backend, pool, 4, options, seed);
    }
  }
  return w;
}

/// One pass over every `stride`-th call of the mix; fails the run on any
/// error. `call_ms[c]` is call c's wall time (0 for calls skipped).
std::vector<Answers> RunPass(const BatchWorkload& w, int threads,
                             size_t stride, std::vector<double>* call_ms) {
  std::vector<Answers> answers(w.calls.size());
  call_ms->assign(w.calls.size(), 0.0);
  for (size_t c = 0; c < w.calls.size(); c += stride) {
    const Clock::time_point start = Clock::now();
    if (!Execute(w.calls[c], threads, &answers[c])) {
      FailCheck("batch call " + std::to_string(c) + " on " +
                w.calls[c].backend + " failed");
    }
    (*call_ms)[c] = MillisBetween(start, Clock::now());
  }
  return answers;
}

/// Checks the 1-thread answers of the sampled calls against the N-thread
/// reference pass.
void CheckSerialMatches(const BatchWorkload& w,
                        const std::vector<Answers>& serial,
                        const std::vector<Answers>& reference) {
  for (size_t c = 0; c < w.calls.size(); c += kSampleStride) {
    if (!SameAnswers(serial[c], reference[c])) {
      FailCheck("batch call " + std::to_string(c) + " on " +
                w.calls[c].backend + " differs between 1 and " +
                std::to_string(BatchThreads()) + " threads");
    }
  }
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// What one closed-loop window measured.
struct Window {
  std::vector<double> call_ms;
  std::vector<size_t> call_index;  // Index into the mix of each call_ms.
  std::vector<double> call_cpu_ms;
  uint64_t instances = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per complete pass over the mix: wall seconds, CPU seconds, instances.
  std::vector<double> pass_wall_s;
  std::vector<double> pass_cpu_s;
  std::vector<double> pass_instances;

  /// Medians over complete passes, robust to a short host stall.
  double InstancesPerSecond() const {
    std::vector<double> values;
    for (size_t i = 0; i < pass_wall_s.size(); ++i) {
      values.push_back(pass_instances[i] / pass_wall_s[i]);
    }
    return Median(values);
  }
  double CpuMsPerInstance() const {
    std::vector<double> values;
    for (size_t i = 0; i < pass_cpu_s.size(); ++i) {
      values.push_back(1000.0 * pass_cpu_s[i] / pass_instances[i]);
    }
    return Median(values);
  }
};

/// The closed loop: calls the mix in order, cyclically, until `seconds`
/// have passed and at least `min_calls` calls were made. Every answer must
/// equal the reference pass's.
Window RunWindow(const BatchWorkload& w, const std::vector<Answers>& reference,
                 double seconds, size_t min_calls, size_t* cursor,
                 Tracer* tracer) {
  Window win;
  const int threads = BatchThreads();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point pass_start = start;
  double pass_cpu_start = SelfCpuSeconds();
  double instances = 0.0;
  bool pass_started = *cursor % w.calls.size() == 0;
  while (Clock::now() < deadline || win.call_ms.size() < min_calls) {
    const size_t c = (*cursor)++ % w.calls.size();
    if (c == 0) {
      pass_start = Clock::now();
      pass_cpu_start = SelfCpuSeconds();
      instances = 0.0;
      pass_started = true;
    }
    const Call& call = w.calls[c];
    Answers answers;
    const double cpu_before = SelfCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const bool ok = Execute(call, threads, &answers);
    const Clock::time_point t1 = Clock::now();
    const double cpu_after = SelfCpuSeconds();
    tracer->Record(call.mqo ? "SolveMqoBatch" : "SolveTxnScheduleEpochs", t0,
                   t1, -1, static_cast<int64_t>(c));
    win.attempted += call.size();
    if (!ok) {
      win.failed += call.size();
      continue;
    }
    if (!SameAnswers(answers, reference[c])) {
      FailCheck("batch call " + std::to_string(c) +
                " is not deterministic across repeats");
    }
    const double ms = MillisBetween(t0, t1);
    win.call_ms.push_back(ms);
    win.call_index.push_back(c);
    win.call_cpu_ms.push_back(1000.0 * (cpu_after - cpu_before));
    win.instances += call.size();
    instances += static_cast<double>(call.size());
    if (c + 1 == w.calls.size() && pass_started) {
      win.pass_wall_s.push_back(MillisBetween(pass_start, t1) / 1000.0);
      win.pass_cpu_s.push_back(cpu_after - pass_cpu_start);
      win.pass_instances.push_back(instances);
    }
  }
  if (win.pass_wall_s.empty()) FailCheck("the window held no complete pass");
  return win;
}

/// Call wall times of the window grouped by backend.
std::map<std::string, std::vector<double>> CallMsByBackend(
    const BatchWorkload& w, const Window& win) {
  std::map<std::string, std::vector<double>> by_backend;
  for (size_t i = 0; i < win.call_ms.size(); ++i) {
    by_backend[w.calls[win.call_index[i]].backend].push_back(win.call_ms[i]);
  }
  return by_backend;
}

/// The mean over backends of each backend's quantile `q` of call time.
/// Each backend's calls form their own cluster, and a quantile of the
/// whole mix would sit in a gap between clusters and jump between them.
double BackendQuantileMs(const BatchWorkload& w, const Window& win, double q) {
  std::vector<double> per_backend;
  for (const auto& [backend, ms] : CallMsByBackend(w, win)) {
    per_backend.push_back(Quantile(ms, q));
  }
  return Mean(per_backend);
}

/// The tail of the mix: p99 over its distinct calls of each call's median
/// wall time across the window's repeats. The median drops the repeats a
/// host stall hit, so the figure moves when the program makes some calls
/// slower, not when the host preempts a worker.
double SlowCallMs(const BatchWorkload& w, const Window& win) {
  std::vector<std::vector<double>> by_call(w.calls.size());
  for (size_t i = 0; i < win.call_ms.size(); ++i) {
    by_call[win.call_index[i]].push_back(win.call_ms[i]);
  }
  std::vector<double> medians;
  for (const std::vector<double>& ms : by_call) {
    if (!ms.empty()) medians.push_back(Median(ms));
  }
  return Quantile(medians, 0.99);
}

struct QualityTally {
  uint64_t instances = 0;
  uint64_t optimal = 0;
  uint64_t feasible = 0;
  double optimal_share() const {
    return instances ? static_cast<double>(optimal) / instances : 0.0;
  }
  double feasible_share() const {
    return instances ? static_cast<double>(feasible) / instances : 0.0;
  }
};

/// Quality of the reference pass against the exhaustive optima: an MQO
/// answer is feasible when it picks one plan per query and optimal when its
/// cost equals the optimum; a schedule is feasible when it is conflict-free
/// and optimal when its makespan also equals the optimum.
std::map<std::string, QualityTally> Quality(const BatchWorkload& w,
                                            const std::vector<Answers>& pass) {
  std::map<std::string, QualityTally> by_label;
  for (size_t c = 0; c < w.calls.size(); ++c) {
    const Call& call = w.calls[c];
    QualityTally& q = by_label[BackendLabel(call.backend)];
    for (size_t i = 0; i < call.size(); ++i) {
      bool feasible = false;
      bool optimal = false;
      if (call.mqo) {
        const MqoSolution& got = pass[c].mqo[i];
        const double best = call.mqo_refs[i].cost;
        feasible = got.feasible;
        optimal = feasible &&
                  std::abs(got.cost - best) <= 1e-9 * (1.0 + std::abs(best));
      } else {
        const Schedule& got = pass[c].txn[i];
        feasible = got.feasible && got.conflicting_pairs_same_slot == 0;
        optimal = feasible && got.makespan == call.txn_refs[i].makespan;
      }
      ++q.instances;
      q.feasible += feasible ? 1 : 0;
      q.optimal += optimal ? 1 : 0;
    }
  }
  return by_label;
}

QualityTally Total(const std::map<std::string, QualityTally>& by_label) {
  QualityTally total;
  for (const auto& [label, q] : by_label) {
    total.instances += q.instances;
    total.optimal += q.optimal;
    total.feasible += q.feasible;
  }
  return total;
}

RunResult RunBatchUntraced(const Args& args, const BatchWorkload& w) {
  Tracer off(false);
  RunResult result;
  const double setup_s =
      MedianProbeSetupSeconds(args, w.backends, kSetupSamples);

  std::vector<double> pass_ms;
  const std::vector<Answers> reference =
      RunPass(w, BatchThreads(), 1, &pass_ms);
  size_t cursor = 0;
  HostWindow host;
  const Window win =
      RunWindow(w, reference, args.seconds, kMinCalls, &cursor, &off);
  host.Finish("closed-loop window");
  const double peak_rss_mb = ReadProcStatus(getpid()).vm_hwm_mb;

  // Correctness outside the window: one thread gives the same answers.
  std::vector<double> t1_ms;
  CheckSerialMatches(w, RunPass(w, 1, kSampleStride, &t1_ms), reference);
  const QualityTally quality = Total(Quality(w, reference));

  result.attempted = win.attempted;
  result.failed = win.failed;
  Metrics& m = result.metrics;
  m.Set("latency_p50_ms", BackendQuantileMs(w, win, 0.5), "ms");
  m.Set("latency_p99_ms", SlowCallMs(w, win), "ms");
  m.Set("ok_share",
        static_cast<double>(win.attempted - win.failed) /
            static_cast<double>(std::max<uint64_t>(1, win.attempted)),
        "share");
  m.Set("instances_per_s", win.InstancesPerSecond(), "1/s");
  m.Set("optimal_share", quality.optimal_share(), "share");
  m.Set("feasible_share", quality.feasible_share(), "share");
  m.Set("cpu_ms_per_job", win.CpuMsPerInstance(), "ms");
  m.Set("peak_rss_mb", peak_rss_mb, "MB");
  m.Set("setup_s", setup_s, "s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "closed loop: %zu calls, %llu instances, reference pass "
                "%.1f ms, sampled 1-thread pass %.1f ms",
                win.call_ms.size(),
                static_cast<unsigned long long>(win.instances), Sum(pass_ms),
                Sum(t1_ms));
  Note(line);
  for (const auto& [backend, ms] : CallMsByBackend(w, win)) {
    std::snprintf(line, sizeof(line), "%s: %zu calls, p50 %.2f ms, p99 %.2f ms",
                  backend.c_str(), ms.size(), Quantile(ms, 0.5),
                  Quantile(ms, 0.99));
    Note(line);
  }
  return result;
}

/// Times the public Statevector kernels at `qubits` qubits; returns ns per
/// amplitude per kernel call.
double GateNsPerAmp(int qubits, const std::vector<double>& diagonal,
                    Tracer* tracer) {
  qdm::sim::Statevector state(qubits);
  const qdm::linalg::Matrix h =
      qdm::circuit::SingleQubitMatrix(qdm::circuit::GateKind::kH, {});
  constexpr int kReps = 2000;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    for (int q = 0; q < qubits; ++q) state.Apply1Q(h, q);
  }
  const Clock::time_point t1 = Clock::now();
  for (int r = 0; r < kReps; ++r) state.ApplyDiagonalPhase(diagonal, 0.1);
  const Clock::time_point t2 = Clock::now();
  tracer->Record("Statevector::Apply1Q", t0, t1);
  tracer->Record("Statevector::ApplyDiagonalPhase", t1, t2);
  const double calls = static_cast<double>(kReps) * (qubits + 1);
  return 1e6 * MillisBetween(t0, t2) /
         (calls * static_cast<double>(state.dimension()));
}

RunResult RunBatchTraced(const Args& args, const BatchWorkload& w) {
  Tracer off(false);
  Tracer tracer(true);
  RunResult result;
  ZeroPerLayerMetrics(&result.metrics);
  Metrics& m = result.metrics;
  const int threads = BatchThreads();

  const qdm::anneal::BackendCacheStats cache_before =
      qdm::anneal::GetBackendCacheStats();
  std::vector<double> pass_ms;
  const std::vector<Answers> reference = RunPass(w, threads, 1, &pass_ms);
  const qdm::anneal::BackendCacheStats cache_after =
      qdm::anneal::GetBackendCacheStats();

  size_t cursor = 0;
  // batch_qopt's traced run also serves jobs through qdmd (about 20 s),
  // so its batch windows take a smaller share of the run.
  const bool served = args.workload == "batch_qopt";
  const double share = served ? 0.5 : 1.0;
  const Window plain = RunWindow(w, reference, share * 0.3 * args.seconds, 0,
                                 &cursor, &off);
  HostWindow host;
  const Window traced = RunWindow(w, reference, share * 0.5 * args.seconds, 0,
                                  &cursor, &tracer);
  host.Finish("traced closed-loop window");
  result.attempted = plain.attempted + traced.attempted;
  result.failed = plain.failed + traced.failed;

  std::vector<double> t1_ms;
  CheckSerialMatches(w, RunPass(w, 1, kSampleStride, &t1_ms), reference);
  size_t sample_instances = 0;
  double sample_pass_ms = 0.0;
  for (size_t c = 0; c < w.calls.size(); c += kSampleStride) {
    sample_instances += w.calls[c].size();
    sample_pass_ms += pass_ms[c];
  }

  // The pipeline decomposed into its public steps, one thread, sampled calls:
  // encode, Create, per-instance Solve, decode of the best sample. The
  // decoded answers must equal the batch entry point's.
  std::map<std::string, std::vector<double>> solve_ms, create_us, flips;
  std::map<std::string, std::vector<double>> encode_us, decode_us, terms;
  std::vector<double> fidelity;
  uint64_t decisions = 0;
  uint64_t commits = 0;
  double solve_total_ms = 0.0;
  for (size_t c = 0; c < w.calls.size(); c += kSampleStride) {
    const Call& call = w.calls[c];
    const std::string label = BackendLabel(call.backend);
    const std::string family = call.mqo ? "mqo" : "txn";
    const int64_t job = static_cast<int64_t>(c);
    const int root = tracer.Begin("pipeline", -1, job);
    std::vector<qdm::anneal::Qubo> qubos;
    for (size_t i = 0; i < call.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      qubos.push_back(call.mqo ? qdm::qopt::MqoToQubo(call.mqo_problems[i])
                               : qdm::qopt::TxnScheduleToQubo(
                                     call.txn_problems[i]));
      const Clock::time_point t1 = Clock::now();
      tracer.Record(call.mqo ? "MqoToQubo" : "TxnScheduleToQubo", t0, t1,
                    root, job);
      encode_us[family].push_back(1000.0 * MillisBetween(t0, t1));
      terms[family].push_back(
          static_cast<double>(qubos.back().quadratic_terms().size()));
    }
    const Clock::time_point c0 = Clock::now();
    auto created = qdm::anneal::SolverRegistry::Global().Create(call.backend);
    const Clock::time_point c1 = Clock::now();
    tracer.Record("SolverRegistry::Create", c0, c1, root, job);
    if (!created.ok()) FailCheck("Create(" + call.backend + ") failed");
    create_us[label].push_back(1000.0 * MillisBetween(c0, c1));
    for (size_t i = 0; i < call.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto solved = (*created)->Solve(
          qubos[i], qdm::anneal::DeriveBatchOptions(call.options, i));
      const Clock::time_point t1 = Clock::now();
      tracer.Record("QuboSolver::Solve", t0, t1, root, job);
      if (!solved.ok() || solved->empty()) {
        FailCheck("replayed Solve on " + call.backend + " failed");
      }
      const double ms = MillisBetween(t0, t1);
      solve_total_ms += ms;
      solve_ms[label].push_back(ms);
      const double n = qubos[i].num_variables();
      if (label == "sa") {
        flips[label].push_back(kReads * kSaSweeps * n / (ms / 1000.0));
      }
      if (label == "tabu") {
        flips[label].push_back(kReads * kTabuIterations / (ms / 1000.0));
      }
      if (!solved->decision().empty()) {
        ++decisions;
        commits += solved->decision().rfind("commit:", 0) == 0 ? 1 : 0;
      }
      if (label == "noisy_qaoa") fidelity.push_back(solved->noise_fidelity());
      const qdm::anneal::Assignment& best = solved->best().assignment;
      const Clock::time_point d0 = Clock::now();
      bool same = false;
      if (call.mqo) {
        same = SameMqo(qdm::qopt::DecodeMqoSample(call.mqo_problems[i], best),
                       reference[c].mqo[i]);
      } else {
        same = SameSchedule(
            qdm::qopt::DecodeSchedule(call.txn_problems[i], best),
            reference[c].txn[i]);
      }
      const Clock::time_point d1 = Clock::now();
      tracer.Record(call.mqo ? "DecodeMqoSample" : "DecodeSchedule", d0, d1,
                    root, job);
      decode_us[family].push_back(1000.0 * MillisBetween(d0, d1));
      if (!same) {
        FailCheck("decomposed pipeline differs from the batch entry point "
                  "on call " + std::to_string(c));
      }
    }
    tracer.End(root);
  }

  const std::map<std::string, QualityTally> quality = Quality(w, reference);
  const double pipeline_ms = Sum(tracer.Durations("pipeline"));
  const double ips_t1 =
      static_cast<double>(sample_instances) / (Sum(t1_ms) / 1000.0);
  double cpu_sum = 0.0;
  double wall_sum = 0.0;
  for (size_t i = 0; i < traced.call_ms.size(); ++i) {
    cpu_sum += traced.call_cpu_ms[i];
    wall_sum += traced.call_ms[i];
  }

  for (const auto& [label, values] : create_us) {
    m.Set("registry.create_us." + label, Median(values), "us");
  }
  const bool gate = args.workload == "batch_gate";
  for (const auto& [label, values] : solve_ms) {
    m.Set((gate ? "algo.solve_ms." : "anneal.solve_ms.") + label,
          Median(values), "ms");
  }
  if (flips.count("sa")) {
    m.Set("anneal.flips_per_s.sa", Median(flips["sa"]), "1/s");
  }
  if (flips.count("tabu")) {
    m.Set("anneal.iters_per_s.tabu", Median(flips["tabu"]), "1/s");
  }
  if (!gate) {
    for (const auto& [label, q] : quality) {
      m.Set("anneal.optimal_share." + label, q.optimal_share(), "share");
      m.Set("anneal.feasible_share." + label, q.feasible_share(), "share");
    }
    m.Set("adaptive.commit_share",
          decisions ? static_cast<double>(commits) / decisions : 0.0, "share");
    for (const std::string family : {"mqo", "txn"}) {
      m.Set("qopt.encode_us." + family, Median(encode_us[family]), "us");
      m.Set("qopt.decode_us." + family, Median(decode_us[family]), "us");
      m.Set("qopt.qubo_terms." + family, Mean(terms[family]), "count");
    }
    m.Set("trace.solve_share_of_latency", solve_total_ms / pipeline_ms,
          "share");
  } else {
    std::vector<double> diagonal(256);
    const qdm::anneal::Qubo qubo =
        qdm::qopt::MqoToQubo(w.calls.front().mqo_problems.front());
    for (uint64_t z = 0; z < diagonal.size(); ++z) {
      qdm::anneal::Assignment x(8);
      for (int b = 0; b < 8; ++b) x[b] = (z >> b) & 1;
      diagonal[z] = qubo.Energy(x);
    }
    m.Set("sim.gate_ns_per_amp", GateNsPerAmp(8, diagonal, &tracer), "ns");
    m.Set("sim.noise_fidelity_mean", Mean(fidelity), "share");
    m.Set("trace.algo_share_of_batch", solve_total_ms / pipeline_ms, "share");
  }
  m.Set("batch.parallelism", cpu_sum / wall_sum, "ratio");
  m.Set("batch.t1_instances_per_s", ips_t1, "1/s");
  // The same sampled calls at 1 thread and at N threads (reference pass).
  m.Set("batch.scaling_efficiency", Sum(t1_ms) / (threads * sample_pass_ms),
        "share");
  m.Set("backend_cache.hits",
        static_cast<double>(
            (cache_after.topology_hits - cache_before.topology_hits) +
            (cache_after.embedding_hits - cache_before.embedding_hits)),
        "count");
  m.Set("backend_cache.constructions",
        static_cast<double>((cache_after.topology_constructions -
                             cache_before.topology_constructions) +
                            (cache_after.embedding_constructions -
                             cache_before.embedding_constructions)),
        "count");
  m.Set("host.online_cores", host.online_cores(), "count");
  m.Set("host.cpu_per_wall", host.cpu_per_wall(), "ratio");
  m.Set("host.steal_pct", host.steal_pct(), "%");
  m.Set("trace.overhead_pct",
        100.0 * (BackendQuantileMs(w, traced, 0.5) /
                     BackendQuantileMs(w, plain, 0.5) -
                 1.0),
        "%");

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!tracer.Write(path)) Note("could not write spans to " + path);
  }
  if (served) MeasureServedLayers(args, &result);
  return result;
}

}  // namespace

RunResult RunBatch(const Args& args) {
  const BatchWorkload w = MakeWorkload(args.workload, args.seed);
  return args.trace ? RunBatchTraced(args, w) : RunBatchUntraced(args, w);
}

}  // namespace perfbench
