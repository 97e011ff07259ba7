// Concurrency battery for the async solver service, part 1: Future/Promise
// semantics, submit/poll/wait round-trips on every registered backend
// family, async-vs-sync bit-parity at {1,2,8} workers, id-keyed completion
// (FIFO never assumed), cancel/deadline/double-Wait semantics, admission
// control, and the submission-time error taxonomy. The heavier
// multi-producer battery lives in service_stress_test.cc.

#include "qdm/service/solver_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/service/cancellation.h"
#include "qdm/service/future.h"

namespace qdm {
namespace service {
namespace {

using anneal::Qubo;
using anneal::SampleSet;
using anneal::SolverOptions;
using std::chrono::milliseconds;

Qubo MakeQubo(int num_variables, uint64_t seed) {
  Rng rng(seed);
  Qubo qubo(num_variables);
  for (int i = 0; i < num_variables; ++i) {
    qubo.AddLinear(i, rng.Uniform(-1, 1));
    for (int j = i + 1; j < num_variables; ++j) {
      qubo.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  return qubo;
}

bool SampleSetsEqual(const SampleSet& a, const SampleSet& b) {
  if (a.size() != b.size()) return false;
  if (a.noise_fidelity() != b.noise_fidelity()) return false;
  if (a.decision() != b.decision()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.samples()[i].energy != b.samples()[i].energy ||
        a.samples()[i].assignment != b.samples()[i].assignment ||
        a.samples()[i].chain_break_fraction !=
            b.samples()[i].chain_break_fraction) {
      return false;
    }
  }
  return true;
}

// Gate the test-only backends block on: CloseGate() makes every
// test_blocking Solve call park until OpenGate(). `started` counts Solve
// entries, so tests can wait until a job is provably mid-run.
class Gate {
 public:
  static Gate& Get() {
    static Gate* gate = new Gate();
    return *gate;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void BlockUntilOpen() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++started_;
    }
    started_cv_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

  void WaitForStarted(int at_least) {
    std::unique_lock<std::mutex> lock(mutex_);
    started_cv_.wait(lock, [&] { return started_ >= at_least; });
  }

  int started() {
    std::lock_guard<std::mutex> lock(mutex_);
    return started_;
  }

  void ResetStarted() {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = 0;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable started_cv_;
  bool open_ = true;
  int started_ = 0;
};

// Deterministic backend that parks on the Gate before solving (via the
// real simulated_annealing path, so results stay comparable to sync runs).
class BlockingSolver : public anneal::QuboSolver {
 public:
  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    Gate::Get().BlockUntilOpen();
    return anneal::SolveWith("simulated_annealing", qubo, options);
  }
  std::string name() const override { return "test_blocking"; }
};

// Deterministic backend that sleeps a fixed wall-clock interval per Solve —
// long enough to overrun a short deadline, short enough for fast tests.
class SleepySolver : public anneal::QuboSolver {
 public:
  static constexpr milliseconds kNap{100};

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    std::this_thread::sleep_for(kNap);
    return anneal::SolveWith("simulated_annealing", qubo, options);
  }
  std::string name() const override { return "test_sleepy"; }
};

bool RegisterTestSolvers() {
  auto& registry = anneal::SolverRegistry::Global();
  registry
      .Register("test_blocking",
                [] { return std::make_unique<BlockingSolver>(); })
      .ok();
  registry
      .Register("test_sleepy", [] { return std::make_unique<SleepySolver>(); })
      .ok();
  return true;
}

const bool kTestSolversRegistered = RegisterTestSolvers();

SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 4;
  options.num_sweeps = 60;
  options.max_iterations = 60;
  options.layers = 1;
  options.restarts = 1;
  options.seed = seed;
  return options;
}

// ---------------------------------------------------------------------------
// Future / Promise.
// ---------------------------------------------------------------------------

TEST(FutureTest, ResolvesWithValue) {
  Promise<int> promise;
  Future<int> future = promise.future();
  EXPECT_TRUE(future.valid());
  EXPECT_FALSE(future.ready());
  EXPECT_FALSE(promise.resolved());
  promise.Set(42);
  EXPECT_TRUE(future.ready());
  EXPECT_TRUE(promise.resolved());
  ASSERT_TRUE(future.Get().ok());
  EXPECT_EQ(*future.Get(), 42);
}

TEST(FutureTest, ResolvesWithErrorStatus) {
  Promise<int> promise;
  Future<int> future = promise.future();
  promise.Set(Status::NotFound("no such thing"));
  ASSERT_FALSE(future.Get().ok());
  EXPECT_EQ(future.Get().status().code(), StatusCode::kNotFound);
  EXPECT_EQ(future.Get().status().message(), "no such thing");
}

TEST(FutureTest, WaitForTimesOutThenSucceeds) {
  Promise<int> promise;
  Future<int> future = promise.future();
  EXPECT_FALSE(future.WaitFor(milliseconds(5)));
  std::thread resolver([&promise] {
    std::this_thread::sleep_for(milliseconds(10));
    promise.Set(7);
  });
  EXPECT_TRUE(future.WaitFor(std::chrono::seconds(30)));
  EXPECT_EQ(*future.Get(), 7);
  resolver.join();
}

TEST(FutureTest, WaitBlocksUntilResolvedFromAnotherThread) {
  Promise<int> promise;
  Future<int> future = promise.future();
  std::thread resolver([&promise] {
    std::this_thread::sleep_for(milliseconds(5));
    promise.Set(11);
  });
  future.Wait();
  EXPECT_EQ(*future.Get(), 11);
  resolver.join();
}

TEST(FutureTest, ThenRunsInlineWhenAlreadyResolved) {
  Future<int> future = MakeResolvedFuture<int>(5);
  Future<int> doubled = future.Then<int>(
      [](const Result<int>& r) -> Result<int> { return *r * 2; });
  ASSERT_TRUE(doubled.ready());
  EXPECT_EQ(*doubled.Get(), 10);
}

TEST(FutureTest, ThenRunsOnResolutionAndPropagatesErrors) {
  Promise<int> promise;
  Future<int> chained = promise.future().Then<int>(
      [](const Result<int>& r) -> Result<int> {
        if (!r.ok()) return r.status();
        return *r + 1;
      });
  Future<int> error_chained = promise.future().Then<int>(
      [](const Result<int>& r) -> Result<int> {
        if (!r.ok()) return Status::Internal("remapped: " +
                                             r.status().message());
        return *r;
      });
  EXPECT_FALSE(chained.ready());
  promise.Set(Status::InvalidArgument("bad input"));
  ASSERT_TRUE(chained.ready());
  EXPECT_EQ(chained.Get().status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(error_chained.ready());
  EXPECT_EQ(error_chained.Get().status().message(), "remapped: bad input");
}

TEST(FutureTest, ContinuationsChain) {
  Promise<int> promise;
  Future<std::string> described =
      promise.future()
          .Then<int>([](const Result<int>& r) -> Result<int> { return *r * 3; })
          .Then<std::string>([](const Result<int>& r) -> Result<std::string> {
            return std::string("value=") + std::to_string(*r);
          });
  promise.Set(4);
  ASSERT_TRUE(described.ready());
  EXPECT_EQ(*described.Get(), "value=12");
}

TEST(FutureDeathTest, DoubleSetAborts) {
  Promise<int> promise;
  promise.Set(1);
  EXPECT_DEATH(promise.Set(2), "resolved twice");
}

TEST(CancellationTest, TokenObservesSource) {
  CancellationSource source;
  CancellationToken token = source.token();
  CancellationToken copy = token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(source.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(source.cancelled());
  EXPECT_TRUE(source.token().cancelled());
}

TEST(CancellationTest, DefaultTokenNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

// ---------------------------------------------------------------------------
// Round trips: every registered backend family through the async path.
// ---------------------------------------------------------------------------

TEST(ServiceRoundTripTest, SubmitPollWaitOnEveryRegisteredBackend) {
  // Covers the plain anneal + gate-bridge backends AND the eagerly
  // registered "embedded:*" / "race:*" family defaults (RegisteredNames
  // lists them); test-only backends are skipped.
  const Qubo qubo = MakeQubo(4, 21);
  const SolverOptions options = FastOptions(123);
  SolverService service(ServiceConfig{2, 0, 0});
  for (const std::string& name :
       anneal::SolverRegistry::Global().RegisteredNames()) {
    if (name.rfind("test_", 0) == 0) continue;
    SCOPED_TRACE(name);
    auto sync = anneal::SolveWith(name, qubo, options);
    ASSERT_TRUE(sync.ok()) << sync.status();

    auto submitted = service.Submit(name, qubo, options);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    ASSERT_GT(submitted->id, 0u);

    // Poll is always answerable (any state), and the typed future, the
    // id-based Wait, and the sync result all agree bit for bit.
    auto early_poll = service.Poll(submitted->id);
    ASSERT_TRUE(early_poll.ok()) << early_poll.status();

    auto waited = service.Wait(submitted->id);
    ASSERT_TRUE(waited.ok()) << waited.status();
    ASSERT_EQ(waited->size(), 1u);
    EXPECT_TRUE(SampleSetsEqual((*waited)[0], *sync));

    // The typed future's continuation runs on the resolving thread a hair
    // after the base promise publishes (which is what Wait(id) observes),
    // so block on the future rather than asserting ready().
    ASSERT_TRUE(submitted->future.Get().ok());
    EXPECT_TRUE(SampleSetsEqual(*submitted->future.Get(), *sync));

    auto poll = service.Poll(submitted->id);
    ASSERT_TRUE(poll.ok()) << poll.status();
    EXPECT_EQ(poll->state, JobState::kSucceeded);
    EXPECT_TRUE(poll->status.ok());
  }
}

TEST(ServiceRoundTripTest, AsyncMatchesSyncAtOneTwoAndEightWorkers) {
  const int kJobs = 8;
  std::vector<Qubo> qubos;
  std::vector<SampleSet> sync;
  for (int i = 0; i < kJobs; ++i) {
    qubos.push_back(MakeQubo(5, 100 + i));
    auto reference =
        anneal::SolveWith("simulated_annealing", qubos[i], FastOptions(7 + i));
    ASSERT_TRUE(reference.ok()) << reference.status();
    sync.push_back(*reference);
  }
  auto batch_sync = anneal::SolveBatchParallel("simulated_annealing", qubos,
                                               FastOptions(500), 1);
  ASSERT_TRUE(batch_sync.ok()) << batch_sync.status();

  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE(workers);
    SolverService service(ServiceConfig{workers, 0, 0});
    EXPECT_EQ(service.num_workers(), workers);
    std::vector<JobId> ids;
    for (int i = 0; i < kJobs; ++i) {
      auto submitted =
          service.Submit("simulated_annealing", qubos[i], FastOptions(7 + i));
      ASSERT_TRUE(submitted.ok()) << submitted.status();
      ids.push_back(submitted->id);
    }
    auto batch =
        service.SubmitBatch("simulated_annealing", qubos, FastOptions(500));
    ASSERT_TRUE(batch.ok()) << batch.status();

    for (int i = 0; i < kJobs; ++i) {
      auto result = service.Wait(ids[i]);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_EQ(result->size(), 1u);
      EXPECT_TRUE(SampleSetsEqual((*result)[0], sync[i]))
          << "job " << i << " diverged from sync at " << workers
          << " workers";
    }
    const auto& batch_result = batch->future.Get();
    ASSERT_TRUE(batch_result.ok()) << batch_result.status();
    ASSERT_EQ(batch_result->size(), qubos.size());
    for (size_t i = 0; i < qubos.size(); ++i) {
      EXPECT_TRUE(SampleSetsEqual((*batch_result)[i], (*batch_sync)[i]))
          << "batch instance " << i;
    }
  }
}

TEST(ServiceRoundTripTest, SubmitRaceMatchesSyncRace) {
  const Qubo qubo = MakeQubo(6, 33);
  const SolverOptions options = FastOptions(42);
  auto sync = anneal::SolveWith("race:simulated_annealing+tabu_search", qubo,
                                options);
  ASSERT_TRUE(sync.ok()) << sync.status();

  SolverService service;
  auto submitted = service.SubmitRace({"simulated_annealing", "tabu_search"},
                                      qubo, options);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  const auto& result = submitted->future.Get();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(SampleSetsEqual(*result, *sync));
}

TEST(ServiceRoundTripTest, CompletionIsKeyedByIdNotSubmissionOrder) {
  // Jobs of wildly different cost, waited in reverse submission order:
  // whatever order they complete in, every id maps to ITS OWN sync result.
  SolverService service(ServiceConfig{2, 0, 0});
  struct Expectation {
    JobId id;
    SampleSet sync;
  };
  std::vector<Expectation> jobs;
  for (int i = 0; i < 6; ++i) {
    const int size = 3 + (i % 3) * 2;  // 3, 5, or 7 variables.
    const Qubo qubo = MakeQubo(size, 300 + i);
    SolverOptions options = FastOptions(900 + i);
    options.num_sweeps = 40 + 200 * (i % 3);
    auto sync = anneal::SolveWith("simulated_annealing", qubo, options);
    ASSERT_TRUE(sync.ok()) << sync.status();
    auto submitted = service.Submit("simulated_annealing", qubo, options);
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    jobs.push_back({submitted->id, *sync});
  }
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    auto result = service.Wait(it->id);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 1u);
    EXPECT_TRUE(SampleSetsEqual((*result)[0], it->sync))
        << "job id " << it->id;
  }
}

// ---------------------------------------------------------------------------
// Wait / Cancel semantics.
// ---------------------------------------------------------------------------

TEST(ServiceWaitTest, DoubleWaitReturnsTheSameResult) {
  SolverService service;
  const Qubo qubo = MakeQubo(4, 5);
  auto submitted = service.Submit("simulated_annealing", qubo, FastOptions(9));
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  auto first = service.Wait(submitted->id);
  auto second = service.Wait(submitted->id);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(first->size(), 1u);
  ASSERT_EQ(second->size(), 1u);
  EXPECT_TRUE(SampleSetsEqual((*first)[0], (*second)[0]));
}

TEST(ServiceWaitTest, WaitAfterCancelOfQueuedJobReturnsCancelled) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto blocker =
      service.Submit("test_blocking", MakeQubo(4, 1), FastOptions(1));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  Gate::Get().WaitForStarted(1);  // Worker is provably busy.
  auto queued =
      service.Submit("simulated_annealing", MakeQubo(4, 2), FastOptions(2));
  ASSERT_TRUE(queued.ok()) << queued.status();

  ASSERT_TRUE(service.Cancel(queued->id).ok());
  // The queued job resolved immediately — Wait must not block on the still
  // parked blocker, and repeated Waits agree.
  for (int round = 0; round < 2; ++round) {
    auto result = service.Wait(queued->id);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  auto poll = service.Poll(queued->id);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, JobState::kCancelled);
  EXPECT_EQ(poll->status.code(), StatusCode::kCancelled);
  // A second Cancel of a terminal job is FailedPrecondition.
  EXPECT_EQ(service.Cancel(queued->id).code(),
            StatusCode::kFailedPrecondition);

  Gate::Get().Open();
  auto blocker_result = service.Wait(blocker->id);
  EXPECT_TRUE(blocker_result.ok()) << blocker_result.status();
}

TEST(ServiceWaitTest, CancelOfRunningJobWinsEvenIfTheSolveCompletes) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto running =
      service.Submit("test_blocking", MakeQubo(4, 3), FastOptions(3));
  ASSERT_TRUE(running.ok()) << running.status();
  Gate::Get().WaitForStarted(1);
  {
    auto poll = service.Poll(running->id);
    ASSERT_TRUE(poll.ok());
    EXPECT_EQ(poll->state, JobState::kRunning);
  }
  ASSERT_TRUE(service.Cancel(running->id).ok());
  // Let the backend finish its (successful) solve: the Ok'd Cancel must
  // still win — the computed result is discarded, never surfaced.
  Gate::Get().Open();
  auto result = service.Wait(running->id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  auto poll = service.Poll(running->id);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, JobState::kCancelled);
}

TEST(ServiceWaitTest, CancelAndPollUnknownIdsAreNotFound) {
  SolverService service;
  EXPECT_EQ(service.Cancel(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Poll(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Release(999).code(), StatusCode::kNotFound);
}

TEST(ServiceWaitTest, ReleaseDropsTerminalJobsOnly) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto running =
      service.Submit("test_blocking", MakeQubo(4, 4), FastOptions(4));
  ASSERT_TRUE(running.ok()) << running.status();
  Gate::Get().WaitForStarted(1);
  EXPECT_EQ(service.Release(running->id).code(),
            StatusCode::kFailedPrecondition);
  Gate::Get().Open();
  ASSERT_TRUE(service.Wait(running->id).ok());
  ASSERT_TRUE(service.Release(running->id).ok());
  EXPECT_EQ(service.Poll(running->id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Release(running->id).code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------------

TEST(ServiceDeadlineTest, JobExpiringInTheQueueResolvesDeadlineExceeded) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto blocker =
      service.Submit("test_blocking", MakeQubo(4, 6), FastOptions(6));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  Gate::Get().WaitForStarted(1);
  SubmitOptions submit;
  submit.deadline = milliseconds(1);
  auto doomed = service.Submit("simulated_annealing", MakeQubo(4, 7),
                               FastOptions(7), submit);
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  std::this_thread::sleep_for(milliseconds(10));
  Gate::Get().Open();
  auto result = service.Wait(doomed->id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  auto poll = service.Poll(doomed->id);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, JobState::kDeadlineExceeded);
  EXPECT_TRUE(service.Wait(blocker->id).ok());
}

TEST(ServiceDeadlineTest, SolveFinishingAfterTheDeadlineIsNeverOk) {
  // The sleepy backend takes ~100ms; the deadline is 30ms. The single
  // instance STARTS before the deadline (first checkpoint) and completes
  // successfully — but past-deadline, so the service must discard the
  // result and resolve DeadlineExceeded.
  SolverService service(ServiceConfig{1, 0, 0});
  SubmitOptions submit;
  submit.deadline = milliseconds(30);
  auto doomed = service.Submit("test_sleepy", MakeQubo(4, 8), FastOptions(8),
                               submit);
  ASSERT_TRUE(doomed.ok()) << doomed.status();
  auto result = service.Wait(doomed->id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServiceDeadlineTest, BatchStopsAtInstanceBoundaryWhenDeadlinePasses) {
  // 5 sleepy instances (~100ms each), deadline 50ms: instance 0 starts
  // (checkpoint at ~0ms) and runs to completion, the checkpoint before
  // instance 1 sees the expired deadline and stops the job — so the
  // backend ran exactly once, not five times.
  Gate::Get().ResetStarted();
  SolverService service(ServiceConfig{1, 0, 0});
  std::vector<Qubo> qubos;
  for (int i = 0; i < 5; ++i) qubos.push_back(MakeQubo(4, 60 + i));
  SubmitOptions submit;
  submit.deadline = milliseconds(50);
  auto batch =
      service.SubmitBatch("test_sleepy", qubos, FastOptions(11), submit);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const auto& result = batch->future.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServiceDeadlineTest, ZeroDeadlineMeansNoDeadline) {
  SolverService service;
  SubmitOptions submit;
  submit.deadline = std::chrono::nanoseconds(0);
  auto submitted = service.Submit("simulated_annealing", MakeQubo(4, 9),
                                  FastOptions(9), submit);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_TRUE(service.Wait(submitted->id).ok());
}

TEST(ServiceDeadlineTest, NegativeDeadlineIsRejectedAtSubmit) {
  SolverService service;
  SubmitOptions submit;
  submit.deadline = milliseconds(-5);
  auto submitted = service.Submit("simulated_annealing", MakeQubo(4, 10),
                                  FastOptions(10), submit);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().submitted, 0u);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(ServiceAdmissionTest, HighWatermarkRejectsAndLowWatermarkResumes) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, /*max_queue_depth=*/2,
                                      /*resume_queue_depth=*/1});
  // Occupy the single worker so subsequent jobs stay queued.
  auto blocker =
      service.Submit("test_blocking", MakeQubo(4, 11), FastOptions(11));
  ASSERT_TRUE(blocker.ok()) << blocker.status();
  Gate::Get().WaitForStarted(1);
  EXPECT_TRUE(service.accepting());

  auto q1 = service.Submit("simulated_annealing", MakeQubo(4, 12),
                           FastOptions(12));
  auto q2 = service.Submit("simulated_annealing", MakeQubo(4, 13),
                           FastOptions(13));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());  // Queue depth now 2 == high watermark.

  auto rejected = service.Submit("simulated_annealing", MakeQubo(4, 14),
                                 FastOptions(14));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(service.accepting());
  EXPECT_EQ(service.stats().rejected, 1u);

  // Still above the low watermark: rejections continue (hysteresis).
  auto rejected_again = service.Submit("simulated_annealing", MakeQubo(4, 15),
                                       FastOptions(15));
  ASSERT_FALSE(rejected_again.ok());
  EXPECT_EQ(rejected_again.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected, 2u);

  // Drain to the low watermark (cancel one queued job) -> admission resumes.
  ASSERT_TRUE(service.Cancel(q2->id).ok());
  EXPECT_TRUE(service.accepting());
  auto accepted = service.Submit("simulated_annealing", MakeQubo(4, 16),
                                 FastOptions(16));
  ASSERT_TRUE(accepted.ok()) << accepted.status();

  Gate::Get().Open();
  EXPECT_TRUE(service.Wait(blocker->id).ok());
  EXPECT_TRUE(service.Wait(q1->id).ok());
  EXPECT_TRUE(service.Wait(accepted->id).ok());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queued + stats.running + stats.completed + stats.cancelled +
                stats.deadline_exceeded,
            stats.submitted);
}

TEST(ServiceAdmissionTest, ZeroMaxQueueDepthDisablesAdmissionControl) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, /*max_queue_depth=*/0, 0});
  auto blocker =
      service.Submit("test_blocking", MakeQubo(4, 17), FastOptions(17));
  ASSERT_TRUE(blocker.ok());
  Gate::Get().WaitForStarted(1);
  std::vector<JobId> ids;
  for (int i = 0; i < 64; ++i) {
    auto submitted = service.Submit("simulated_annealing", MakeQubo(4, 18),
                                    FastOptions(18 + i));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    ids.push_back(submitted->id);
  }
  EXPECT_TRUE(service.accepting());
  EXPECT_EQ(service.stats().rejected, 0u);
  Gate::Get().Open();
  for (JobId id : ids) EXPECT_TRUE(service.Wait(id).ok());
  EXPECT_TRUE(service.Wait(blocker->id).ok());
}

// ---------------------------------------------------------------------------
// Submission-time error taxonomy (errors resolve BEFORE enqueue, with the
// exact Status the synchronous registry path produces).
// ---------------------------------------------------------------------------

TEST(ServiceErrorTest, UnknownSolverIsNotFoundBeforeEnqueue) {
  SolverService service;
  const auto sync_status =
      anneal::SolverRegistry::Global().Create("no_such_backend").status();
  ASSERT_EQ(sync_status.code(), StatusCode::kNotFound);

  auto submitted = service.Submit("no_such_backend", MakeQubo(3, 1),
                                  FastOptions(1));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(submitted.status().message(), sync_status.message());
  // Never enqueued: no job was created, nothing was rejected by admission.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServiceErrorTest, MalformedEmbeddedSpecKeepsItsSyncMessage) {
  const std::string name = "embedded:simulated_annealing:chimera:banana";
  const auto sync_status =
      anneal::SolverRegistry::Global().Create(name).status();
  ASSERT_EQ(sync_status.code(), StatusCode::kInvalidArgument);

  SolverService service;
  auto submitted = service.Submit(name, MakeQubo(3, 2), FastOptions(2));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(submitted.status().message(), sync_status.message());
}

TEST(ServiceErrorTest, MalformedRaceSpecKeepsItsSyncMessage) {
  const std::string name = "race:simulated_annealing";  // A race of one.
  const auto sync_status =
      anneal::SolverRegistry::Global().Create(name).status();
  ASSERT_EQ(sync_status.code(), StatusCode::kInvalidArgument);

  SolverService service;
  auto submitted = service.Submit(name, MakeQubo(3, 3), FastOptions(3));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(submitted.status().message(), sync_status.message());

  // SubmitRace goes through the same "race:" resolver, so an unknown
  // member surfaces the member's NotFound annotated with the full spec.
  auto race = service.SubmitRace({"simulated_annealing", "nope"},
                                 MakeQubo(3, 4), FastOptions(4));
  ASSERT_FALSE(race.ok());
  EXPECT_EQ(race.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(race.status().message(),
            anneal::SolverRegistry::Global()
                .Create("race:simulated_annealing+nope")
                .status()
                .message());
}

TEST(ServiceErrorTest, BatchInstanceFailureKeepsItsSyncAnnotation) {
  // Instance 1 exceeds the gate-bridge statevector cap (InvalidArgument at
  // the registry layer); the async error must carry the same
  // "batch instance 1: ..." framing (and code) as the synchronous
  // SolveBatchParallel.
  std::vector<Qubo> qubos;
  qubos.push_back(MakeQubo(3, 5));
  qubos.push_back(Qubo(30));
  qubos.push_back(MakeQubo(3, 6));
  SolverOptions options = FastOptions(5);
  auto sync = anneal::SolveBatchParallel("qaoa", qubos, options, 1);
  ASSERT_FALSE(sync.ok());
  ASSERT_EQ(sync.status().code(), StatusCode::kInvalidArgument);

  SolverService service;
  auto batch = service.SubmitBatch("qaoa", qubos, options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const auto& result = batch->future.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), sync.status().code());
  EXPECT_EQ(result.status().message(), sync.status().message());
  auto poll = service.Poll(batch->id);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(poll->state, JobState::kFailed);
}

TEST(ServiceErrorTest, BadOptionsAreRejectedAtSubmit) {
  SolverService service;
  SolverOptions bad_reads = FastOptions(1);
  bad_reads.num_reads = 0;
  auto rejected =
      service.Submit("simulated_annealing", MakeQubo(3, 8), bad_reads);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().submitted, 0u);
}

// ---------------------------------------------------------------------------
// Shutdown.
// ---------------------------------------------------------------------------

TEST(ServiceShutdownTest, ShutdownCancelsQueuedLetsRunningFinish) {
  Gate::Get().ResetStarted();
  Gate::Get().Close();
  SolverService service(ServiceConfig{1, 0, 0});
  auto running =
      service.Submit("test_blocking", MakeQubo(4, 19), FastOptions(19));
  ASSERT_TRUE(running.ok());
  Gate::Get().WaitForStarted(1);
  auto queued =
      service.Submit("simulated_annealing", MakeQubo(4, 20), FastOptions(20));
  ASSERT_TRUE(queued.ok());

  std::thread opener([] {
    std::this_thread::sleep_for(milliseconds(20));
    Gate::Get().Open();
  });
  service.Shutdown();  // Blocks until the running blocker finishes.
  opener.join();

  auto running_result = service.Wait(running->id);
  EXPECT_TRUE(running_result.ok()) << running_result.status();
  auto queued_result = service.Wait(queued->id);
  ASSERT_FALSE(queued_result.ok());
  EXPECT_EQ(queued_result.status().code(), StatusCode::kCancelled);

  auto late = service.Submit("simulated_annealing", MakeQubo(4, 21),
                             FastOptions(21));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.accepting());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

}  // namespace
}  // namespace service
}  // namespace qdm
