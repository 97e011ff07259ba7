#ifndef QDM_COMMON_THREAD_POOL_H_
#define QDM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qdm {

/// Fixed-size worker pool. Every fan-out in the toolkit runs on ONE of
/// these — the process-wide Shared() pool — through its capped,
/// caller-participating ForEach: batch instances (anneal::SolveBatchParallel),
/// race members (anneal::RaceMemberSolvers), the adaptive:* explore/commit
/// phases and the statevector/density-matrix kernel chunks. The service's
/// drainer tasks are plain Submit()s on the same pool. Nothing in the
/// library constructs another pool, so a call never spawns threads and a
/// nested fan-out never oversubscribes the host beyond the pool's width
/// plus its callers.
///
/// Tasks must not throw (the toolkit is exception-free; failures travel as
/// Status values captured by the task itself). Submitting from inside a task
/// is allowed; destruction drains tasks already submitted.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; `num_threads <= 0` means
  /// DefaultNumThreads().
  explicit ThreadPool(int num_threads);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution on some worker thread.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. The pool stays
  /// usable afterwards (Submit/Wait cycles can repeat).
  void Wait();

  /// Worker count used for `num_threads <= 0`: the hardware concurrency,
  /// never less than 1.
  static int DefaultNumThreads();

  /// The process-wide pool every fan-out runs on. Lazily created with
  /// DefaultNumThreads() workers and intentionally never destroyed, so it
  /// stays usable from any shutdown context.
  static ThreadPool& Shared();

  /// Runs body(slot, i) for every i in [0, n) on the calling thread plus
  /// helper tasks submitted to this pool, and returns when all n iterations
  /// are done.
  ///
  ///  - max_workers caps how many threads run bodies at once, the caller
  ///    included; <= 0 means no cap beyond the pool. The call runs
  ///    min(n, max_workers, num_threads() + 1) wide, so it submits at most
  ///    num_threads() helpers. max_workers == 1 runs every index in order
  ///    on the calling thread and submits nothing.
  ///  - slot identifies the thread of execution: the caller is slot 0 and
  ///    helper k is slot k, so slot < min(n, max_workers, num_threads() + 1).
  ///    A slot never runs two bodies at once, which lets callers keep one
  ///    non-thread-safe resource per slot (a solver backend, say), sized up
  ///    front as min(n, max_workers).
  ///  - The caller drains the shared index counter too, so the call makes
  ///    progress even when every worker is busy: nested use from inside
  ///    pool tasks cannot deadlock (worst case the caller runs all n
  ///    iterations itself).
  ///  - Index-to-slot assignment is dynamic, so callers needing determinism
  ///    must make body's result independent of the slot and of execution
  ///    order. `body` must be safe to call concurrently for different
  ///    slots and, like every task (see class comment), must not throw: one
  ///    escaping the caller's own drain would unwind past helpers still
  ///    using the call state.
  void ForEach(int n, int max_workers,
               const std::function<void(int slot, int i)>& body);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // Queued + currently running tasks.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qdm

#endif  // QDM_COMMON_THREAD_POOL_H_
