// The served path of the traced batch_qopt run: qdmd as its own process, an
// open-loop client on a seeded arrival schedule, and the in-process replays
// that time the stages running inside the daemon. It reports the net,
// wire/json and service per-layer metrics; no end-to-end metric comes from
// it (see perfbench/README.md for why).

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "host.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/net/client.h"
#include "qdm/net/wire.h"
#include "trace.h"

namespace perfbench {
namespace {

using qdm::Rng;
using qdm::anneal::Qubo;
using qdm::anneal::SampleSet;
using qdm::anneal::SolverOptions;

constexpr int kServerWorkers = 2;
// qdmd's first few hundred jobs run slower (a cold daemon stalls for tens
// of ms at a time), so each daemon first serves this many jobs closed-loop.
constexpr int kWarmupJobs = 320;
constexpr double kWarmupRate = 1e5;
// Jobs of the traced fixed-rate phase: p99 has ten jobs beyond it.
constexpr int kTracedJobs = 1000;
constexpr int kReplayJobs = 64;
// Every this many jobs keep their SampleSet for the replay check. The
// rest are graded as they arrive and dropped, so holding results costs
// every phase the same.
constexpr size_t kKeepEvery = 16;

/// A QUBO with a planted ground state: every term is non-negative and zero
/// at `ground`, so `ground` is the optimum. The coupling structure (dense
/// or sparse) sets the body size.
struct PlantedQubo {
  Qubo qubo{1};
};

PlantedQubo MakePlantedQubo(int n, double density, Rng* rng) {
  PlantedQubo out;
  out.qubo = Qubo(n);
  qdm::anneal::Assignment ground(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ground[i] = rng->Bernoulli(0.5) ? 1 : 0;
  // Fields grow with the expected degree: without them the complement of
  // `ground` satisfies every coupling too, and a short anneal on a dense
  // instance falls into that basin about half the time.
  const double field_scale = 0.125 * std::max(1.0, density * (n - 1));
  for (int i = 0; i < n; ++i) {
    // h * [x_i != ground_i].
    const double h = field_scale * rng->Uniform(0.5, 1.5);
    if (ground[i]) {
      out.qubo.AddOffset(h);
      out.qubo.AddLinear(i, -h);
    } else {
      out.qubo.AddLinear(i, h);
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!rng->Bernoulli(density)) continue;
      const double w = rng->Uniform(0.5, 1.5);
      if (ground[i] == ground[j]) {
        // w * [x_i != x_j] = w * (x_i + x_j - 2 x_i x_j).
        out.qubo.AddLinear(i, w);
        out.qubo.AddLinear(j, w);
        out.qubo.AddQuadratic(i, j, -2.0 * w);
      } else {
        // w * [x_i == x_j] = w * (1 - x_i - x_j + 2 x_i x_j).
        out.qubo.AddOffset(w);
        out.qubo.AddLinear(i, -w);
        out.qubo.AddLinear(j, -w);
        out.qubo.AddQuadratic(i, j, 2.0 * w);
      }
    }
  }
  return out;
}

/// One kind of job in a workload's mix.
struct JobKind {
  std::string solver;
  SolverOptions options;  // Seed is set per job.
  int num_variables = 64;
  double density = 0.0;
  int pool_size = 24;
  std::vector<PlantedQubo> pool;
};

struct ServeWorkload {
  std::vector<JobKind> kinds;
  double fixed_rate = 0.0;  // Jobs/s of the traced phase.
};

ServeWorkload MakeCodecWorkload() {
  ServeWorkload w;
  // Request-heavy: a dense 64-variable QUBO, solved almost for free.
  JobKind request;
  request.solver = "simulated_annealing";
  request.options.num_reads = 1;
  request.options.num_sweeps = 10;
  request.density = 1.0;
  // Response-heavy: a sparse QUBO sampled 256 times, one sweep each, so
  // the reply (a 256-sample SampleSet) dominates the job.
  JobKind response;
  response.solver = "simulated_annealing";
  response.options.num_reads = 256;
  response.options.num_sweeps = 1;
  response.density = 0.09;
  w.kinds = {request, response};
  // Well below capacity, so a slower host stretches each job's codec work
  // without also building a queue that multiplies the tail.
  w.fixed_rate = 60.0;
  return w;
}

/// One scheduled job: which kind, which pooled QUBO, which seed, and when
/// it is due relative to the phase start.
struct Job {
  int kind = 0;
  int input = 0;
  uint64_t seed = 0;
  double due_ms = 0.0;
};

/// `count` jobs arriving as a Poisson process conditioned on `count`
/// arrivals in count / rate seconds (sorted uniform due times), with the
/// kinds in equal shares in a seeded order.
std::vector<Job> MakeSchedule(const ServeWorkload& w, double rate, int count,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs(static_cast<size_t>(count));
  std::vector<double> due(jobs.size());
  for (double& t : due) t = rng.Uniform() * 1000.0 * count / rate;
  std::sort(due.begin(), due.end());
  std::vector<int> kinds(jobs.size());
  for (size_t k = 0; k < kinds.size(); ++k) {
    kinds[k] = static_cast<int>(k % w.kinds.size());
  }
  rng.Shuffle(&kinds);
  for (size_t k = 0; k < jobs.size(); ++k) {
    Job& job = jobs[k];
    job.kind = kinds[k];
    job.input = static_cast<int>(rng.UniformInt(
        0, static_cast<int64_t>(w.kinds[job.kind].pool.size()) - 1));
    job.seed = MixSeed(seed, k) | 1u;
    job.due_ms = due[k];
  }
  return jobs;
}

SolverOptions OptionsFor(const ServeWorkload& w, const Job& job) {
  SolverOptions options = w.kinds[job.kind].options;
  options.seed = job.seed;
  return options;
}

const Qubo& QuboFor(const ServeWorkload& w, const Job& job) {
  return w.kinds[job.kind].pool[job.input].qubo;
}

// -- qdmd as a child process --------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& path, int workers) {
    int fds[2];
    if (pipe(fds) != 0) FailCheck("pipe() for qdmd failed");
    const std::string workers_text = std::to_string(workers);
    const Clock::time_point start = Clock::now();
    pid_ = fork();
    if (pid_ < 0) FailCheck("fork() for qdmd failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(path.c_str(), path.c_str(), "--port", "0", "--workers",
            workers_text.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    RegisterChild(pid_);
    close(fds[1]);
    out_fd_ = fds[0];
    const std::string line = ReadLine(10000);
    if (std::sscanf(line.c_str(), "qdmd: listening on port %d", &port_) != 1) {
      FailCheck("qdmd did not report its port (got '" + line + "')");
    }
    qdm::net::QdmClient client(port_);
    while (!client.Healthz().ok()) {
      if (MillisBetween(start, Clock::now()) > 10000) {
        FailCheck("qdmd did not answer /healthz within 10 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      UnregisterChild(pid_);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM and wait: returns the graceful shutdown time in ms.
  double Stop() {
    const Clock::time_point start = Clock::now();
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    UnregisterChild(pid_);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      FailCheck("qdmd did not exit cleanly on SIGTERM");
    }
    return MillisBetween(start, Clock::now());
  }

 private:
  std::string ReadLine(int timeout_ms) {
    std::string line;
    const Clock::time_point start = Clock::now();
    while (MillisBetween(start, Clock::now()) < timeout_ms) {
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 100) <= 0) continue;
      char c = 0;
      if (read(out_fd_, &c, 1) != 1) break;
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// -- The open-loop generator --------------------------------------------------

struct JobRecord {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point submitted;
  Clock::time_point done;
  bool accepted = false;  // Submit returned a job id.
  bool ok = false;        // ... and Wait returned its result.
  bool refused = false;   // Submit was refused by admission control.
  bool valid = false;     // Every sample a well-formed answer.
  std::vector<SampleSet> results;  // Kept for every kKeepEvery-th job.
};

struct Phase {
  std::vector<Job> jobs;
  std::vector<JobRecord> records;
  double wall_ms = 0.0;  // First due time to last completion.

  std::vector<double> Latencies() const {
    std::vector<double> out;
    for (const JobRecord& r : records) {
      if (r.ok) out.push_back(MillisBetween(r.due, r.done));
    }
    return out;
  }
};

/// Grades one answer: is every sample a valid answer (n bits, energy equal
/// to the QUBO's energy of its assignment)?
void Grade(const PlantedQubo& input, const SampleSet& set, JobRecord* r) {
  r->valid = !set.empty();
  for (const auto& sample : set.samples()) {
    if (static_cast<int>(sample.assignment.size()) !=
        input.qubo.num_variables()) {
      r->valid = false;
      break;
    }
    const double energy = input.qubo.Energy(sample.assignment);
    if (std::abs(energy - sample.energy) > 1e-6 * (1.0 + std::abs(energy))) {
      r->valid = false;
      break;
    }
  }
}

/// Sends every job at its due time from `threads` client threads, each
/// job one Submit + Wait. A thread that is still busy when a job falls due
/// sends it late; the lateness stays in the job's latency, which is timed
/// from the due time.
Phase RunOpenLoop(const ServeWorkload& w, int port, std::vector<Job> jobs,
                  int threads, Tracer* tracer) {
  Phase phase;
  phase.jobs = std::move(jobs);
  phase.records.resize(phase.jobs.size());
  std::atomic<size_t> next{0};
  // Let the threads start before the first job falls due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      qdm::net::QdmClient client(port);
      for (size_t k = next.fetch_add(1); k < phase.jobs.size();
           k = next.fetch_add(1)) {
        const Job& job = phase.jobs[k];
        JobRecord& record = phase.records[k];
        record.due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     job.due_ms));
        std::this_thread::sleep_until(record.due);
        record.sent = Clock::now();
        auto id = client.Submit(w.kinds[job.kind].solver, QuboFor(w, job),
                                OptionsFor(w, job));
        record.submitted = Clock::now();
        if (!id.ok()) {
          const auto code = id.status().code();
          record.refused = code == qdm::StatusCode::kResourceExhausted;
          record.done = record.submitted;
          continue;
        }
        record.accepted = true;
        auto results = client.Wait(*id);
        record.done = Clock::now();
        record.ok = results.ok() && results->size() == 1;
        if (record.ok) {
          Grade(w.kinds[job.kind].pool[job.input], results->front(), &record);
          if (k % kKeepEvery == 0) record.results = std::move(*results);
        }
        if (tracer->enabled()) {
          const int64_t job_id = static_cast<int64_t>(k);
          const int root = tracer->Record("job", record.due, record.done, -1,
                                          job_id);
          tracer->Record("QdmClient::Submit", record.sent, record.submitted,
                         root, job_id);
          tracer->Record("QdmClient::Wait", record.submitted, record.done,
                         root, job_id);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  Clock::time_point last = start;
  for (const JobRecord& r : phase.records) last = std::max(last, r.done);
  phase.wall_ms = MillisBetween(start, last);
  return phase;
}

/// Checks the /v1/stats conservation law and that its counts equal what
/// the client saw: every accepted job completed, every refusal counted.
void CheckStats(int port, uint64_t submitted, uint64_t refused,
                uint64_t completed, qdm::service::ServiceStats* out) {
  auto stats = qdm::net::QdmClient(port).Stats();
  if (!stats.ok()) FailCheck("GET /v1/stats failed");
  const qdm::service::ServiceStats& s = stats->stats;
  if (s.queued + s.running + s.completed + s.cancelled + s.deadline_exceeded !=
      s.submitted) {
    FailCheck("/v1/stats conservation law does not hold");
  }
  if (s.submitted != submitted || s.rejected != refused ||
      s.completed != completed || s.queued != 0 || s.running != 0) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "/v1/stats counts (submitted %llu, rejected %llu, "
                  "completed %llu) differ from the client's (%llu, %llu, "
                  "%llu)",
                  static_cast<unsigned long long>(s.submitted),
                  static_cast<unsigned long long>(s.rejected),
                  static_cast<unsigned long long>(s.completed),
                  static_cast<unsigned long long>(submitted),
                  static_cast<unsigned long long>(refused),
                  static_cast<unsigned long long>(completed));
    FailCheck(line);
  }
  if (out != nullptr) *out = s;
}

/// Client-side tallies of all jobs sent to one daemon.
struct DaemonTally {
  uint64_t submitted = 0;
  uint64_t refused = 0;
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Phase& phase) {
    for (const JobRecord& r : phase.records) {
      ++attempted;
      submitted += r.accepted ? 1 : 0;
      refused += r.refused ? 1 : 0;
      completed += r.ok ? 1 : 0;
      failed += r.ok ? 0 : 1;
    }
  }
};

/// Fails the run unless some job of the phase completed and every
/// completed job's answer is valid.
void CheckAnswers(const Phase& phase) {
  uint64_t jobs = 0;
  for (const JobRecord& r : phase.records) {
    if (!r.ok) continue;
    ++jobs;
    if (!r.valid) FailCheck("a served answer is not a valid SampleSet");
  }
  if (jobs == 0) FailCheck("no job of the phase completed");
}

/// Per-job replay of the stages that ran inside qdmd (and the client's
/// codec), through the same public functions, in this process.
struct Replay {
  size_t job = 0;
  double encode_request_ms = 0.0;
  double decode_request_ms = 0.0;
  double solve_ms = 0.0;
  double encode_results_ms = 0.0;
  double decode_results_ms = 0.0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
};

/// Replays up to kReplayJobs evenly spaced kept jobs of `phase` and checks
/// that each remote SampleSet is bit-identical to the in-process Solve at
/// the same seed (compared through the canonical %.17g wire encoding).
std::vector<Replay> ReplayAndVerify(const ServeWorkload& w, const Phase& phase,
                                    Tracer* tracer) {
  std::vector<size_t> kept;
  for (size_t k = 0; k < phase.records.size(); ++k) {
    if (!phase.records[k].results.empty()) kept.push_back(k);
  }
  const size_t stride = std::max<size_t>(1, kept.size() / kReplayJobs);
  std::vector<Replay> replays;
  for (size_t i = 0; i < kept.size(); i += stride) {
    const size_t k = kept[i];
    const Job& job = phase.jobs[k];
    const int64_t job_id = static_cast<int64_t>(k);
    Replay replay;
    replay.job = k;

    qdm::net::JobRequest request;
    request.solver = w.kinds[job.kind].solver;
    request.qubos = {QuboFor(w, job)};
    request.options = OptionsFor(w, job);
    const Clock::time_point t0 = Clock::now();
    const std::string body = qdm::net::EncodeJobRequest(request);
    const Clock::time_point t1 = Clock::now();
    auto decoded = qdm::net::DecodeJobRequest(body);
    const Clock::time_point t2 = Clock::now();
    if (!decoded.ok()) FailCheck("replayed request does not decode");
    auto solver = qdm::anneal::SolverRegistry::Global().Create(decoded->solver);
    const Clock::time_point t3 = Clock::now();
    if (!solver.ok()) FailCheck("replayed Create failed");
    auto solved = (*solver)->Solve(decoded->qubos.front(), decoded->options);
    const Clock::time_point t4 = Clock::now();
    if (!solved.ok()) FailCheck("replayed Solve failed");
    const std::string response = qdm::net::EncodeResultsResponse({*solved});
    const Clock::time_point t5 = Clock::now();
    const bool response_decodes =
        qdm::net::DecodeResultsResponse(response).ok();
    const Clock::time_point t6 = Clock::now();
    if (!response_decodes) FailCheck("replayed response does not decode");

    const int root = tracer->Record("replay", t0, t6, -1, job_id);
    tracer->Record("net::EncodeJobRequest", t0, t1, root, job_id);
    tracer->Record("net::DecodeJobRequest", t1, t2, root, job_id);
    tracer->Record("SolverRegistry::Create", t2, t3, root, job_id);
    tracer->Record("QuboSolver::Solve", t3, t4, root, job_id);
    tracer->Record("net::EncodeResultsResponse", t4, t5, root, job_id);
    tracer->Record("net::DecodeResultsResponse", t5, t6, root, job_id);

    if (qdm::net::EncodeResultsResponse(phase.records[k].results) != response) {
      FailCheck("remote SampleSet of job " + std::to_string(k) +
                " differs from the in-process Solve at the same seed");
    }
    replay.encode_request_ms = MillisBetween(t0, t1);
    replay.decode_request_ms = MillisBetween(t1, t2);
    replay.solve_ms = MillisBetween(t3, t4);
    replay.encode_results_ms = MillisBetween(t4, t5);
    replay.decode_results_ms = MillisBetween(t5, t6);
    replay.request_bytes = body.size();
    replay.response_bytes = response.size();
    replays.push_back(replay);
  }
  if (replays.empty()) FailCheck("no job to replay");
  return replays;
}

void Warmup(const ServeWorkload& w, const Daemon& daemon, uint64_t seed,
            DaemonTally* tally, Tracer* off) {
  Phase warm = RunOpenLoop(
      w, daemon.port(), MakeSchedule(w, kWarmupRate, kWarmupJobs, seed),
      LoadThreads(), off);
  tally->Add(warm);
}

void BuildPools(ServeWorkload* w, uint64_t seed) {
  for (size_t k = 0; k < w->kinds.size(); ++k) {
    JobKind& kind = w->kinds[k];
    Rng rng(MixSeed(seed, 10 + k));
    for (int i = 0; i < kind.pool_size; ++i) {
      kind.pool.push_back(MakePlantedQubo(kind.num_variables, kind.density,
                                          &rng));
    }
  }
}

}  // namespace

void MeasureServedLayers(const Args& args, RunResult* result) {
  ServeWorkload w = MakeCodecWorkload();
  BuildPools(&w, args.seed);
  Tracer off(false);
  Tracer tracer(true);
  Metrics& m = result->metrics;

  Daemon daemon(args.qdmd_path, kServerWorkers);
  DaemonTally tally;
  Warmup(w, daemon, MixSeed(args.seed, 1), &tally, &off);
  const std::vector<Job> schedule =
      MakeSchedule(w, w.fixed_rate, kTracedJobs, MixSeed(args.seed, 2));
  const uint64_t opens_before = TcpActiveOpens();
  HostWindow host(daemon.pid());
  Phase traced =
      RunOpenLoop(w, daemon.port(), schedule, LoadThreads(), &tracer);
  host.Finish("traced fixed-rate phase");
  const uint64_t opens = TcpActiveOpens() - opens_before;
  const ProcStatus status = ReadProcStatus(daemon.pid());
  tally.Add(traced);
  qdm::service::ServiceStats stats;
  CheckStats(daemon.port(), tally.submitted, tally.refused, tally.completed,
             &stats);
  const double shutdown_ms = daemon.Stop();
  result->attempted += tally.attempted;
  result->failed += tally.failed;

  const std::vector<Replay> replays = ReplayAndVerify(w, traced, &tracer);
  CheckAnswers(traced);

  // Per-job remainders: transport is the Submit round trip minus the
  // request codec; queue wait is the Wait round trip minus the solve and
  // the results codec.
  const std::map<int64_t, double> submit =
      tracer.DurationByJob("QdmClient::Submit");
  const std::map<int64_t, double> wait =
      tracer.DurationByJob("QdmClient::Wait");
  const std::vector<double> latencies = traced.Latencies();
  std::vector<double> transport, queue_wait, wire_share;
  std::vector<double> enc_req, dec_req, enc_res, dec_res, request_bytes,
      response_bytes, solve_all;
  for (const Replay& r : replays) {
    const JobRecord& record = traced.records[r.job];
    const double job_ms = MillisBetween(record.due, record.done);
    const double codec = r.encode_request_ms + r.decode_request_ms +
                         r.encode_results_ms + r.decode_results_ms;
    transport.push_back(submit.at(static_cast<int64_t>(r.job)) -
                        r.encode_request_ms - r.decode_request_ms);
    queue_wait.push_back(wait.at(static_cast<int64_t>(r.job)) - r.solve_ms -
                         r.encode_results_ms - r.decode_results_ms);
    wire_share.push_back(codec / job_ms);
    enc_req.push_back(1000.0 * r.encode_request_ms);
    dec_req.push_back(1000.0 * r.decode_request_ms);
    enc_res.push_back(1000.0 * r.encode_results_ms);
    dec_res.push_back(1000.0 * r.decode_results_ms);
    request_bytes.push_back(static_cast<double>(r.request_bytes));
    response_bytes.push_back(static_cast<double>(r.response_bytes));
    solve_all.push_back(r.solve_ms);
  }

  const std::vector<double> submit_rtt = tracer.Durations("QdmClient::Submit");
  const std::vector<double> wait_rtt = tracer.Durations("QdmClient::Wait");
  m.Set("net.submit_rtt_ms.p50", Quantile(submit_rtt, 0.5), "ms");
  m.Set("net.submit_rtt_ms.p99", Quantile(submit_rtt, 0.99), "ms");
  m.Set("net.wait_rtt_ms.p50", Quantile(wait_rtt, 0.5), "ms");
  m.Set("net.wait_rtt_ms.p99", Quantile(wait_rtt, 0.99), "ms");
  m.Set("net.transport_ms.p50", Median(transport), "ms");
  m.Set("net.connections_per_job",
        static_cast<double>(opens) / static_cast<double>(traced.records.size()),
        "count");
  m.Set("net.server_threads", status.threads, "count");
  m.Set("net.server_vmsize_mb", status.vm_size_mb, "MB");
  m.Set("net.shutdown_ms", shutdown_ms, "ms");
  // A job span's self time is the part of its due-to-result interval
  // outside Submit and Wait: how late the generator sent it.
  m.Set("generator.lateness_p99_ms", Quantile(tracer.SelfTimes("job"), 0.99),
        "ms");
  // Means, not medians: the codec mix is bimodal (dense requests, long
  // replies), and a median would jump between the two kinds by seed.
  m.Set("wire.encode_request_us", Mean(enc_req), "us");
  m.Set("wire.decode_request_us", Mean(dec_req), "us");
  m.Set("wire.encode_results_us", Mean(enc_res), "us");
  m.Set("wire.decode_results_us", Mean(dec_res), "us");
  m.Set("wire.request_bytes", Mean(request_bytes), "bytes");
  m.Set("wire.response_bytes", Mean(response_bytes), "bytes");
  m.Set("service.queue_wait_ms.p50", Quantile(queue_wait, 0.5), "ms");
  m.Set("service.queue_wait_ms.p99", Quantile(queue_wait, 0.99), "ms");
  m.Set("service.busy_share",
        Mean(solve_all) * static_cast<double>(latencies.size()) /
            (kServerWorkers * traced.wall_ms),
        "share");
  m.Set("service.completed", static_cast<double>(stats.completed), "count");
  m.Set("service.rejected", static_cast<double>(stats.rejected), "count");
  m.Set("trace.wire_share_of_latency", Median(wire_share), "share");

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload +
                             "-served-seed" + std::to_string(args.seed) +
                             ".jsonl";
    if (!tracer.Write(path)) Note("could not write spans to " + path);
  }
}

}  // namespace perfbench
