#include "qdm/service/solver_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

#include "qdm/common/strings.h"
#include "qdm/common/thread_pool.h"
#include "qdm/service/cancellation.h"

namespace qdm {
namespace service {

namespace {

using anneal::Qubo;
using anneal::SampleSet;
using anneal::SolverOptions;
using Clock = std::chrono::steady_clock;

unsigned long long AsULL(JobId id) {
  return static_cast<unsigned long long>(id);
}

}  // namespace

const char* JobStateToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "Queued";
    case JobState::kRunning:
      return "Running";
    case JobState::kSucceeded:
      return "Succeeded";
    case JobState::kFailed:
      return "Failed";
    case JobState::kCancelled:
      return "Cancelled";
    case JobState::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

bool JobStateFromString(const std::string& name, JobState* state) {
  // The enumerators are contiguous from kQueued to kDeadlineExceeded.
  const int last = static_cast<int>(JobState::kDeadlineExceeded);
  for (int i = 0; i <= last; ++i) {
    const JobState candidate = static_cast<JobState>(i);
    if (name == JobStateToString(candidate)) {
      *state = candidate;
      return true;
    }
  }
  return false;
}

struct SolverService::Impl {
  struct Job {
    JobId id = 0;
    std::vector<Qubo> qubos;
    SolverOptions options;
    bool has_deadline = false;
    Clock::time_point deadline;
    std::unique_ptr<anneal::QuboSolver> backend;
    CancellationSource cancel;
    JobState state = JobState::kQueued;
    // The Status the job terminated with; meaningless before a terminal
    // transition, immutable afterwards (terminal states are final), so the
    // resolving thread may read it without the service lock.
    Status final_status;
    Promise<std::vector<SampleSet>> promise;
  };

  explicit Impl(const ServiceConfig& config)
      : num_workers(config.num_workers > 0 ? config.num_workers
                                           : ThreadPool::DefaultNumThreads()),
        high_watermark(std::max(0, config.max_queue_depth)),
        low_watermark(ResolveLowWatermark(config, high_watermark)) {}

  static int ResolveLowWatermark(const ServiceConfig& config, int high) {
    if (high == 0) return 0;  // Admission control disabled.
    if (config.resume_queue_depth <= 0) return high / 2;
    return std::min(config.resume_queue_depth, high - 1);
  }

  /// Validates, builds the backend, and enqueues — every submission-time
  /// error (unknown name, malformed spec, bad options, admission refusal,
  /// shutdown) surfaces HERE, before the job exists.
  static Result<std::shared_ptr<Job>> Enqueue(
      const std::shared_ptr<Impl>& impl, const std::string& solver_name,
      std::vector<Qubo> qubos, const SolverOptions& options,
      const SubmitOptions& submit);

  /// Worker task body: pulls queued jobs until the queue is empty, then
  /// retires itself. At most `num_workers` instances are in flight; they
  /// run on ThreadPool::Shared() and hold a shared_ptr to this Impl, so a
  /// straggling drainer can never outlive the service state.
  static void DrainLoop(const std::shared_ptr<Impl>& impl);

  /// Executes one dequeued job (already marked kRunning) and resolves it.
  static void RunJob(const std::shared_ptr<Impl>& impl,
                     const std::shared_ptr<Job>& job);

  /// Moves a job into a terminal state and updates the counters. Must be
  /// called with `mutex` held; the caller resolves the promise AFTER
  /// releasing the lock (continuations may re-enter the service).
  static void Transition(Impl& impl, Job& job, JobState state, Status status);

  const int num_workers;
  const int high_watermark;
  const int low_watermark;  // 0 when admission control is disabled.

  mutable std::mutex mutex;
  std::condition_variable idle_cv;
  std::deque<std::shared_ptr<Job>> queue;
  std::map<JobId, std::shared_ptr<Job>> jobs;
  JobId next_id = 1;
  int active_drainers = 0;
  bool accepting = true;
  bool shutdown = false;
  ServiceStats stats;
};

void SolverService::Impl::Transition(Impl& impl, Job& job, JobState state,
                                     Status status) {
  QDM_CHECK(!IsTerminalJobState(job.state))
      << "job " << job.id << " transitioned twice";
  QDM_CHECK(IsTerminalJobState(state));
  if (job.state == JobState::kQueued) {
    --impl.stats.queued;
  } else {
    --impl.stats.running;
  }
  job.state = state;
  job.final_status = std::move(status);
  switch (state) {
    case JobState::kSucceeded:
    case JobState::kFailed:
      ++impl.stats.completed;
      break;
    case JobState::kCancelled:
      ++impl.stats.cancelled;
      break;
    case JobState::kDeadlineExceeded:
      ++impl.stats.deadline_exceeded;
      break;
    default:
      break;
  }
  impl.idle_cv.notify_all();
}

Result<std::shared_ptr<SolverService::Impl::Job>> SolverService::Impl::Enqueue(
    const std::shared_ptr<Impl>& impl, const std::string& solver_name,
    std::vector<Qubo> qubos, const SolverOptions& options,
    const SubmitOptions& submit) {
  QDM_RETURN_IF_ERROR(anneal::ValidateSolverOptions(options));
  if (submit.deadline.count() < 0) {
    return Status::InvalidArgument(
        StrFormat("deadline must be non-negative, got %lld ns",
                  static_cast<long long>(submit.deadline.count())));
  }
  // Resolve the backend BEFORE enqueueing, so an unknown name (NotFound) or
  // a malformed "embedded:"/"race:" spec (InvalidArgument) is returned with
  // the registry's exact message and never occupies a queue slot.
  QDM_ASSIGN_OR_RETURN(std::unique_ptr<anneal::QuboSolver> backend,
                       anneal::SolverRegistry::Global().Create(solver_name));
  auto job = std::make_shared<Job>();
  job->qubos = std::move(qubos);
  job->options = options;
  if (submit.deadline.count() > 0) {
    job->has_deadline = true;
    job->deadline = Clock::now() + submit.deadline;
  }
  job->backend = std::move(backend);
  {
    std::lock_guard<std::mutex> lock(impl->mutex);
    if (impl->shutdown) {
      return Status::FailedPrecondition(
          "SolverService is shut down; no further submissions are accepted");
    }
    if (impl->high_watermark > 0) {
      const int queued = static_cast<int>(impl->stats.queued);
      // Hysteresis: once the queue hits the high watermark the service
      // sheds load until the backlog drains to the low watermark, instead
      // of flapping accept/reject at the boundary.
      if (!impl->accepting && queued <= impl->low_watermark) {
        impl->accepting = true;
      }
      if (impl->accepting && queued >= impl->high_watermark) {
        impl->accepting = false;
      }
      if (!impl->accepting) {
        ++impl->stats.rejected;
        return Status::ResourceExhausted(StrFormat(
            "job queue at high watermark (%d queued, max %d); admission "
            "resumes once the queue drains to %d",
            queued, impl->high_watermark, impl->low_watermark));
      }
    }
    job->id = impl->next_id++;
    ++impl->stats.submitted;
    ++impl->stats.queued;
    impl->jobs.emplace(job->id, job);
    impl->queue.push_back(job);
    if (impl->active_drainers < impl->num_workers) {
      ++impl->active_drainers;
      ThreadPool::Shared().Submit([impl] { DrainLoop(impl); });
    }
  }
  return job;
}

void SolverService::Impl::DrainLoop(const std::shared_ptr<Impl>& impl) {
  for (;;) {
    std::shared_ptr<Job> job;      // Next job to execute.
    std::shared_ptr<Job> expired;  // Deadline passed while queued.
    {
      std::lock_guard<std::mutex> lock(impl->mutex);
      while (!impl->queue.empty()) {
        std::shared_ptr<Job> candidate = std::move(impl->queue.front());
        impl->queue.pop_front();
        // Jobs cancelled while queued are already terminal and resolved;
        // their queue entry is a tombstone.
        if (candidate->state != JobState::kQueued) continue;
        if (candidate->has_deadline && Clock::now() >= candidate->deadline) {
          Transition(*impl, *candidate, JobState::kDeadlineExceeded,
                     Status::DeadlineExceeded(StrFormat(
                         "job %llu deadline expired while queued",
                         AsULL(candidate->id))));
          expired = std::move(candidate);
          break;  // Resolve outside the lock, then keep draining.
        }
        --impl->stats.queued;
        ++impl->stats.running;
        candidate->state = JobState::kRunning;
        job = std::move(candidate);
        break;
      }
      if (job == nullptr && expired == nullptr) {
        // Queue drained: this worker retires. Submit re-spawns workers as
        // new jobs arrive (both under this mutex, so a job enqueued after
        // this check always sees either a live drainer or a fresh spawn).
        --impl->active_drainers;
        impl->idle_cv.notify_all();
        return;
      }
    }
    if (expired != nullptr) {
      expired->promise.Set(expired->final_status);
      continue;
    }
    RunJob(impl, job);
  }
}

void SolverService::Impl::RunJob(const std::shared_ptr<Impl>& impl,
                                 const std::shared_ptr<Job>& job) {
  const CancellationToken token = job->cancel.token();
  const size_t n = job->qubos.size();
  std::vector<SampleSet> results;
  results.reserve(n);
  Status failure;  // Ok unless an instance failed.
  bool deadline_hit = false;
  for (size_t i = 0; i < n; ++i) {
    // Cooperative checkpoints at batch-instance granularity: a cancel or
    // an expired deadline stops the job here without solving further
    // instances (an in-flight backend call itself is never interrupted).
    if (token.cancelled()) break;
    if (job->has_deadline && Clock::now() >= job->deadline) {
      deadline_hit = true;
      break;
    }
    // Per-instance seed derivation (seed + i) — identical to the
    // synchronous SolveBatch/SolveBatchParallel contract, and for a batch
    // of one identical to Solve (seed + 0), which is what makes async
    // results bit-identical to the sync path for the same seed.
    Result<SampleSet> result = job->backend->Solve(
        job->qubos[i], anneal::DeriveBatchOptions(job->options, i));
    if (!result.ok()) {
      // anneal::AnnotateBatchInstanceError keeps the async path's framing
      // identical to the synchronous SolveBatchParallel one.
      failure = anneal::AnnotateBatchInstanceError(result.status(), i, n);
      break;
    }
    results.push_back(std::move(result).value());
  }
  {
    std::lock_guard<std::mutex> lock(impl->mutex);
    // Terminal precedence: an observed Cancel always wins (Cancel's Ok
    // return promises a kCancelled outcome), then the deadline — checked
    // once more so a backend that FINISHED after the deadline still
    // resolves DeadlineExceeded, never a stale kOk — then real failures.
    if (job->cancel.cancelled()) {
      Transition(*impl, *job, JobState::kCancelled,
                 Status::Cancelled(StrFormat("job %llu cancelled while "
                                             "running",
                                             AsULL(job->id))));
    } else if (deadline_hit ||
               (job->has_deadline && Clock::now() >= job->deadline)) {
      Transition(*impl, *job, JobState::kDeadlineExceeded,
                 Status::DeadlineExceeded(StrFormat(
                     "job %llu exceeded its deadline", AsULL(job->id))));
    } else if (!failure.ok()) {
      Transition(*impl, *job, JobState::kFailed, failure);
    } else {
      Transition(*impl, *job, JobState::kSucceeded, Status::Ok());
    }
  }
  // Resolve outside the lock: continuations run on this thread and may
  // re-enter the service (Poll, further Submits, ...).
  if (job->final_status.ok()) {
    job->promise.Set(std::move(results));
  } else {
    job->promise.Set(job->final_status);
  }
}

SolverService::SolverService(ServiceConfig config)
    : impl_(std::make_shared<Impl>(config)) {}

SolverService::~SolverService() { Shutdown(); }

Result<SubmittedJob> SolverService::Submit(const std::string& solver_name,
                                           Qubo qubo,
                                           const SolverOptions& options,
                                           const SubmitOptions& submit) {
  std::vector<Qubo> qubos;
  qubos.push_back(std::move(qubo));
  QDM_ASSIGN_OR_RETURN(
      std::shared_ptr<Impl::Job> job,
      Impl::Enqueue(impl_, solver_name, std::move(qubos), options, submit));
  SubmittedJob submitted;
  submitted.id = job->id;
  // Unwrap the batch-of-one through a continuation — the typed future
  // resolves on the worker the moment the job does.
  submitted.future = job->promise.future().Then<SampleSet>(
      [](const Result<std::vector<SampleSet>>& result) -> Result<SampleSet> {
        if (!result.ok()) return result.status();
        QDM_CHECK(result->size() == 1)
            << "single-qubo job resolved with " << result->size()
            << " sample sets";
        return result->front();
      });
  return submitted;
}

Result<SubmittedBatch> SolverService::SubmitBatch(
    const std::string& solver_name, std::vector<Qubo> qubos,
    const SolverOptions& options, const SubmitOptions& submit) {
  QDM_ASSIGN_OR_RETURN(
      std::shared_ptr<Impl::Job> job,
      Impl::Enqueue(impl_, solver_name, std::move(qubos), options, submit));
  SubmittedBatch submitted;
  submitted.id = job->id;
  submitted.future = job->promise.future();
  return submitted;
}

Result<SubmittedJob> SolverService::SubmitRace(
    const std::vector<std::string>& members, Qubo qubo,
    const SolverOptions& options, const SubmitOptions& submit) {
  // Delegating to the "race:" registry family keeps one taxonomy: member
  // validation (>= 2 members, no nested races, unknown/malformed members)
  // and the deterministic best-energy contract all come from
  // MakePortfolioSolver, exactly as on the synchronous path.
  return Submit("race:" + StrJoin(members, "+"), std::move(qubo), options,
                submit);
}

Result<JobSnapshot> SolverService::Poll(JobId id) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    return Status::NotFound(StrFormat(
        "no job with id %llu (never submitted, or released)", AsULL(id)));
  }
  JobSnapshot snapshot;
  snapshot.id = id;
  snapshot.state = it->second->state;
  snapshot.status = it->second->final_status;
  return snapshot;
}

Result<std::vector<SampleSet>> SolverService::Wait(JobId id) const {
  Future<std::vector<SampleSet>> future;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end()) {
      return Status::NotFound(StrFormat(
          "no job with id %llu (never submitted, or released)", AsULL(id)));
    }
    future = it->second->promise.future();
  }
  // Blocking happens outside the lock; repeated Waits re-read the same
  // resolved result (double-Wait is well-defined and cheap).
  return future.Get();
}

Status SolverService::Cancel(JobId id) {
  std::shared_ptr<Impl::Job> to_resolve;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end()) {
      return Status::NotFound(StrFormat(
          "no job with id %llu (never submitted, or released)", AsULL(id)));
    }
    Impl::Job& job = *it->second;
    if (IsTerminalJobState(job.state)) {
      return Status::FailedPrecondition(
          StrFormat("job %llu is already %s", AsULL(id),
                    JobStateToString(job.state)));
    }
    job.cancel.Cancel();
    if (job.state == JobState::kQueued) {
      // Queued jobs terminate immediately (their queue entry becomes a
      // tombstone the drainer skips). Running jobs keep the kRunning state
      // until the worker observes the token; because the token was set
      // under this mutex and the worker's terminal decision reads it under
      // the same mutex, an Ok return here guarantees a kCancelled outcome.
      Impl::Transition(*impl_, job, JobState::kCancelled,
                       Status::Cancelled(StrFormat(
                           "job %llu cancelled while queued", AsULL(id))));
      to_resolve = it->second;
    }
  }
  if (to_resolve != nullptr) {
    to_resolve->promise.Set(to_resolve->final_status);
  }
  return Status::Ok();
}

Status SolverService::Release(JobId id) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end()) {
    return Status::NotFound(StrFormat(
        "no job with id %llu (never submitted, or released)", AsULL(id)));
  }
  if (!IsTerminalJobState(it->second->state)) {
    return Status::FailedPrecondition(
        StrFormat("job %llu is still %s; only terminal jobs can be released",
                  AsULL(id), JobStateToString(it->second->state)));
  }
  impl_->jobs.erase(it);
  return Status::Ok();
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

bool SolverService::accepting() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->shutdown) return false;
  if (impl_->high_watermark == 0) return true;
  // Report what the next Submit would decide, including the hysteresis
  // resume (the flag itself only flips inside Submit).
  if (!impl_->accepting &&
      static_cast<int>(impl_->stats.queued) <= impl_->low_watermark) {
    return true;
  }
  return impl_->accepting &&
         static_cast<int>(impl_->stats.queued) < impl_->high_watermark;
}

int SolverService::num_workers() const { return impl_->num_workers; }

void SolverService::Shutdown() {
  std::vector<std::shared_ptr<Impl::Job>> to_resolve;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
    for (const std::shared_ptr<Impl::Job>& job : impl_->queue) {
      if (job->state != JobState::kQueued) continue;
      job->cancel.Cancel();
      Impl::Transition(*impl_, *job, JobState::kCancelled,
                       Status::Cancelled(StrFormat(
                           "job %llu cancelled by service shutdown",
                           AsULL(job->id))));
      to_resolve.push_back(job);
    }
    impl_->queue.clear();
  }
  for (const std::shared_ptr<Impl::Job>& job : to_resolve) {
    job->promise.Set(job->final_status);
  }
  // Running jobs are never abandoned (their workers reference live service
  // state); wait for them — and for retiring drainers — to finish. Must
  // not be called from inside a pool task for that reason.
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->idle_cv.wait(lock, [this] {
    return impl_->stats.running == 0 && impl_->active_drainers == 0;
  });
}

}  // namespace service
}  // namespace qdm
