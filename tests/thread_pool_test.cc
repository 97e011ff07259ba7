#include "qdm/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, MoreThreadsThanTasksIsFine) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossWaitCycles) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must still run everything already queued.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  // Two tasks that each block until the other has started can only finish
  // when two workers are live simultaneously (works even on one core: the
  // OS interleaves the blocked threads).
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int started = 0;
  for (int t = 0; t < 2; ++t) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return started == 2; });
    });
  }
  pool.Wait();
  EXPECT_EQ(started, 2);
}

TEST(ThreadPoolTest, NonPositiveThreadCountFallsBackToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultNumThreads());
}

TEST(ThreadPoolTest, ForEachCoversEveryIndexExactlyOnceAtEveryCap) {
  const int n = 1000;
  for (int cap : {1, 2, 0}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ThreadPool::Shared().ForEach(
        n, cap, [&hits](int, int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "cap " << cap << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ForEachCapOneRunsInOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool on_caller = true;
  ThreadPool::Shared().ForEach(50, 1, [&](int slot, int i) {
    EXPECT_EQ(slot, 0);
    on_caller = on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(on_caller);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ForEachNeverRunsMoreThanCapBodiesAtOnce) {
  // A pool far wider than the cap: only the cap may bound concurrency.
  ThreadPool pool(8);
  for (int cap : {2, 3}) {
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    pool.ForEach(64, cap, [&](int, int) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      in_flight.fetch_sub(1);
    });
    EXPECT_GE(peak.load(), 1) << "cap " << cap;
    EXPECT_LE(peak.load(), cap) << "cap " << cap;
  }
}

TEST(ThreadPoolTest, ForEachSlotNeverRunsConcurrentlyWithItself) {
  // Per-slot resources (one solver backend per slot) rely on this: a slot
  // is one sequential drain loop, never two bodies at once.
  ThreadPool pool(4);
  std::vector<std::atomic<bool>> busy(pool.num_threads() + 1);
  for (auto& b : busy) b.store(false);
  std::atomic<int> overlaps{0};
  pool.ForEach(200, 0, [&](int slot, int) {
    if (busy[slot].exchange(true)) overlaps.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    busy[slot].store(false);
  });
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(ThreadPoolTest, ForEachSlotsStayWithinTheDocumentedBound) {
  // slot < min(n, max_workers, num_threads() + 1), max_workers <= 0 being
  // no cap: what lets callers size per-slot state up front.
  ThreadPool pool(3);
  for (int n : {1, 2, 3, 10, 100}) {
    for (int cap : {0, 1, 2, 8}) {
      const int bound =
          std::min({n, cap > 0 ? cap : n, pool.num_threads() + 1});
      std::atomic<int> out_of_range{0};
      pool.ForEach(n, cap, [&](int slot, int) {
        if (slot < 0 || slot >= bound) out_of_range.fetch_add(1);
      });
      EXPECT_EQ(out_of_range.load(), 0) << "n " << n << " cap " << cap;
    }
  }
}

TEST(ThreadPoolTest, ForEachHandlesEmptyAndSingleRanges) {
  ThreadPool::Shared().ForEach(
      0, 0, [](int, int) { FAIL() << "body on empty range"; });
  std::atomic<int> counter{0};
  ThreadPool::Shared().ForEach(
      1, 0, [&counter](int, int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ForEachWithMoreWorkersThanItemsTouchesNothingExtra) {
  // Pool workers far exceed the item count: only n slots are used, and
  // each index is still visited exactly once.
  ThreadPool pool(8);
  const int n = 3;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ForEach(n, 0, [&hits, n](int, int i) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, n);
    hits[i].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ForEachWithNegativeCountReturnsImmediately) {
  ThreadPool pool(2);
  pool.ForEach(-5, 0, [](int, int) { FAIL() << "body on negative range"; });
  ThreadPool::Shared().ForEach(
      -1, 2, [](int, int) { FAIL() << "body on negative range"; });
}

TEST(ThreadPoolTest, DestructorWhileIdleReturnsPromptly) {
  // A pool that never received work (or whose work has fully drained) must
  // tear down cleanly — workers are parked on the condition variable, not
  // spinning, and the destructor wakes and joins every one of them.
  { ThreadPool pool(4); }
  {
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(counter.load(), 1);
    // Idle again: destruct with an empty queue and no task in flight.
  }
}

TEST(ThreadPoolTest, DestructorWhileBusyDrainsInFlightAndQueuedWork) {
  // Destruction while a task is mid-run and others are still queued: the
  // destructor must let the running task finish and drain the queue before
  // joining — nothing already submitted is dropped.
  std::atomic<int> counter{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool first_started = false;
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        first_started = true;
      }
      cv.notify_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      counter.fetch_add(1);
    });
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Ensure the destructor genuinely overlaps a running task.
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return first_started; });
  }
  EXPECT_EQ(counter.load(), 21);
}

TEST(ThreadPoolTest, SharedForEachNestsWithoutDeadlock) {
  // ForEach bodies that themselves call ForEach on the SAME shared pool are
  // the hard nesting case: every worker may be busy with an outer body, so
  // inner calls can only finish because the calling thread participates in
  // draining its own index counter. Worst case everything runs inline —
  // never a deadlock.
  std::atomic<int> inner_iterations{0};
  ThreadPool::Shared().ForEach(8, 0, [&inner_iterations](int, int) {
    ThreadPool::Shared().ForEach(16, 0, [&inner_iterations](int, int) {
      inner_iterations.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_iterations.load(), 8 * 16);
}

TEST(ThreadPoolTest, SharedForEachInsideAnotherPoolsTasksCompletes) {
  // Tasks of another pool that fan out on the shared pool (as the service
  // drainers' solves do) must not deadlock: the shared-pool ForEach is
  // caller-participating, so no task ever blocks on work that cannot be
  // stolen.
  ThreadPool outer(4);
  std::atomic<int> inner_iterations{0};
  for (int t = 0; t < 8; ++t) {
    outer.Submit([&inner_iterations] {
      ThreadPool::Shared().ForEach(16, 0, [&inner_iterations](int, int) {
        inner_iterations.fetch_add(1);
      });
    });
  }
  outer.Wait();
  EXPECT_EQ(inner_iterations.load(), 8 * 16);
}

TEST(ThreadPoolTest, BatchWorkersRunningParallelKernelsStayDeterministic) {
  // End-to-end nesting: SolveBatchParallel fans QUBO instances across pool
  // workers, and with parallel statevector kernels enabled process-wide
  // every worker dispatches kernel chunks onto the shared pool. The batch
  // must complete (no deadlock from the shared-pool seam — kernel ForEach
  // calls are caller-participating) and stay bit-identical to the strictly
  // sequential, serial-kernel run.
  Rng gen(13);
  std::vector<anneal::Qubo> qubos;
  for (int b = 0; b < 6; ++b) {
    anneal::Qubo qubo(4);
    for (int i = 0; i < 4; ++i) qubo.AddLinear(i, gen.Uniform(-1, 1));
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        qubo.AddQuadratic(i, j, gen.Uniform(-1, 1));
      }
    }
    qubos.push_back(std::move(qubo));
  }
  anneal::SolverOptions options;
  options.num_reads = 3;
  options.seed = 11;
  options.layers = 1;
  options.restarts = 1;

  const sim::ExecutionConfig previous =
      sim::Statevector::DefaultExecutionConfig();
  sim::Statevector::SetDefaultExecutionConfig(
      sim::ExecutionConfig{4, /*serial_cutoff=*/1});
  auto nested = anneal::SolveBatchParallel("qaoa", qubos, options, 4);
  sim::Statevector::SetDefaultExecutionConfig(
      sim::ExecutionConfig{1, /*serial_cutoff=*/1});
  auto sequential = anneal::SolveBatchParallel("qaoa", qubos, options, 1);
  sim::Statevector::SetDefaultExecutionConfig(previous);

  ASSERT_TRUE(nested.ok()) << nested.status();
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  ASSERT_EQ(nested->size(), qubos.size());
  for (size_t b = 0; b < qubos.size(); ++b) {
    ASSERT_EQ((*nested)[b].size(), (*sequential)[b].size()) << "instance " << b;
    for (size_t s = 0; s < (*nested)[b].size(); ++s) {
      EXPECT_EQ((*nested)[b].samples()[s].energy,
                (*sequential)[b].samples()[s].energy)
          << "instance " << b << " sample " << s;
      EXPECT_EQ((*nested)[b].samples()[s].assignment,
                (*sequential)[b].samples()[s].assignment)
          << "instance " << b << " sample " << s;
    }
  }
}

}  // namespace
}  // namespace qdm
