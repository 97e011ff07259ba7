// The batched-solving contract (QuboSolver::SolveBatch, SolveBatchParallel,
// and the qopt batch entry points): ordering, per-instance seed derivation,
// bit-identical results across thread counts, and all-or-nothing error
// propagation with the failing instance named — and that the fan-out runs
// on the shared pool without spawning a thread per call.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "qdm/anneal/portfolio_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/common/thread_pool.h"
#include "qdm/qopt/mqo.h"
#include "qdm/qopt/txn_scheduling.h"

namespace qdm {
namespace anneal {
namespace {

/// A small batch of distinct 3-variable instances (kept tiny so even the
/// state-vector bridges solve them in milliseconds).
std::vector<Qubo> SmallBatch(int count) {
  std::vector<Qubo> qubos;
  for (int k = 0; k < count; ++k) {
    Qubo q(3);
    q.AddLinear(0, -1.0 - k);
    q.AddLinear(1, 0.5 * (k % 3));
    q.AddLinear(2, 1.0);
    q.AddQuadratic(0, 1, -0.5);
    q.AddQuadratic(1, 2, 2.0 - k);
    qubos.push_back(q);
  }
  return qubos;
}

/// Options cheap enough to run through every backend family.
SolverOptions FastOptions(uint64_t seed) {
  SolverOptions options;
  options.num_reads = 3;
  options.num_sweeps = 50;
  options.max_iterations = 50;
  options.layers = 1;
  options.restarts = 1;
  options.seed = seed;
  return options;
}

void ExpectSameSampleSets(const std::vector<SampleSet>& a,
                          const std::vector<SampleSet>& b,
                          const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << context << " instance " << i;
    for (size_t s = 0; s < a[i].size(); ++s) {
      EXPECT_EQ(a[i].samples()[s].assignment, b[i].samples()[s].assignment)
          << context << " instance " << i << " sample " << s;
      // Bit-identical, not just close: the same instance is solved by the
      // same deterministic code path whatever the thread count.
      EXPECT_EQ(a[i].samples()[s].energy, b[i].samples()[s].energy)
          << context << " instance " << i << " sample " << s;
    }
  }
}

TEST(BatchSolverTest, DefaultSolveBatchMatchesPerInstanceDerivedSolve) {
  const std::vector<Qubo> qubos = SmallBatch(5);
  const SolverOptions options = FastOptions(42);
  auto solver = SolverRegistry::Global().Create("simulated_annealing");
  ASSERT_TRUE(solver.ok());
  auto batch = (*solver)->SolveBatch(qubos, options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), qubos.size());
  for (size_t i = 0; i < qubos.size(); ++i) {
    auto single = SolveWith("simulated_annealing", qubos[i],
                            DeriveBatchOptions(options, i));
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectSameSampleSets({(*batch)[i]}, {*single},
                         "instance vs derived single solve");
  }
}

TEST(BatchSolverTest, DeriveBatchOptionsShiftsSeed) {
  SolverOptions options;
  options.seed = 100;
  options.num_sweeps = 7;
  SolverOptions derived = DeriveBatchOptions(options, 5);
  EXPECT_EQ(derived.seed, 105u);
  EXPECT_EQ(derived.num_sweeps, 7);
}

TEST(BatchSolverTest, BitIdenticalAcrossThreadCountsOnEveryBackend) {
  const std::vector<Qubo> qubos = SmallBatch(4);
  const SolverOptions options = FastOptions(7);
  for (const std::string& name : SolverRegistry::Global().RegisteredNames()) {
    auto one = SolveBatchParallel(name, qubos, options, /*num_threads=*/1);
    ASSERT_TRUE(one.ok()) << name << ": " << one.status();
    ASSERT_EQ(one->size(), qubos.size()) << name;
    for (int threads : {2, 8}) {
      auto many = SolveBatchParallel(name, qubos, options, threads);
      ASSERT_TRUE(many.ok()) << name << ": " << many.status();
      ExpectSameSampleSets(*one, *many,
                           name + " at " + std::to_string(threads) +
                               " threads");
    }
  }
}

TEST(BatchSolverTest, InvalidInstanceFailsWholeBatchNamingTheInstance) {
  // Instance 1 exceeds the exact solver's 30-variable enumeration limit.
  std::vector<Qubo> qubos = SmallBatch(3);
  Qubo oversized(31);
  for (int i = 0; i < 31; ++i) oversized.AddLinear(i, -1.0);
  qubos[1] = oversized;
  SolverOptions options = FastOptions(3);
  for (int threads : {1, 4}) {
    auto result = SolveBatchParallel("exact", qubos, options, threads);
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << threads << " threads";
    EXPECT_NE(result.status().message().find("batch instance 1"),
              std::string::npos)
        << threads << " threads: " << result.status().message();
  }
}

TEST(BatchSolverTest, BatchOfOneReportsTheBareUnderlyingError) {
  // The single-shot entry points are batch-of-one wrappers; their callers
  // never asked for batch framing, so the "batch instance" prefix must not
  // leak into their error messages.
  Qubo oversized(31);
  for (int i = 0; i < 31; ++i) oversized.AddLinear(i, -1.0);
  auto result = SolveBatchParallel("exact", {oversized}, FastOptions(3), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message().find("batch instance"),
            std::string::npos)
      << result.status().message();
}

TEST(BatchSolverTest, EmptyBatchSucceedsWithEmptyResult) {
  auto result =
      SolveBatchParallel("simulated_annealing", {}, FastOptions(1), 4);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
}

TEST(BatchSolverTest, UnknownSolverAndBadOptionsAreRejectedUpFront) {
  const std::vector<Qubo> qubos = SmallBatch(2);
  auto unknown = SolveBatchParallel("warp_drive", qubos, FastOptions(1), 2);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  SolverOptions bad = FastOptions(1);
  bad.num_reads = 0;
  auto invalid = SolveBatchParallel("simulated_annealing", qubos, bad, 2);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
}

/// Live threads of this process: the entries of /proc/self/task.
int CountProcessThreads() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<int>(std::distance(begin(tasks), end(tasks)));
}

/// Records the most process threads any Solve call observed, then solves
/// with simulated annealing (so it stays a deterministic backend wherever
/// the registry's every-backend sweeps pick it up).
class ThreadCountProbeSolver : public QuboSolver {
 public:
  static std::atomic<int>& MaxThreadsSeen() {
    static std::atomic<int> max_seen{0};
    return max_seen;
  }

  Result<SampleSet> Solve(const Qubo& qubo,
                          const SolverOptions& options) override {
    const int threads = CountProcessThreads();
    int seen = MaxThreadsSeen().load();
    while (threads > seen &&
           !MaxThreadsSeen().compare_exchange_weak(seen, threads)) {
    }
    return SolveWith("simulated_annealing", qubo, options);
  }
  std::string name() const override { return "test_thread_count_probe"; }
};

TEST(BatchSolverTest, FanOutSpawnsNoThreadPerCall) {
  // Batch and race fan-out run on the shared pool's workers plus the
  // caller, so once the pool exists no call may add a thread to the process.
  (void)SolverRegistry::Global().Register(
      "test_thread_count_probe",
      [] { return std::make_unique<ThreadCountProbeSolver>(); });
  (void)ThreadPool::Shared();
  const int warmed_up = CountProcessThreads();
  std::atomic<int>& max_seen = ThreadCountProbeSolver::MaxThreadsSeen();

  max_seen.store(0);
  auto batch = SolveBatchParallel("test_thread_count_probe", SmallBatch(16),
                                  FastOptions(21), /*num_threads=*/8);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->size(), 16u);
  EXPECT_GT(max_seen.load(), 0);
  EXPECT_LE(max_seen.load(), warmed_up) << "batch at 8 threads";

  max_seen.store(0);
  auto race = SolveRaceParallel(
      std::vector<std::string>(4, "test_thread_count_probe"), SmallBatch(1)[0],
      FastOptions(21), /*num_threads=*/4);
  ASSERT_TRUE(race.ok()) << race.status();
  EXPECT_GT(max_seen.load(), 0);
  EXPECT_LE(max_seen.load(), warmed_up) << "race at 4 threads";
}

}  // namespace
}  // namespace anneal

namespace qopt {
namespace {

std::vector<MqoProblem> MqoBatch(int count, Rng* rng) {
  std::vector<MqoProblem> problems;
  problems.reserve(count);
  for (int i = 0; i < count; ++i) {
    problems.push_back(GenerateMqoProblem(4, 3, 0.3, rng));
  }
  return problems;
}

TEST(BatchSolverTest, SolveMqoBatchMatchesPerProblemSolveMqoWithDerivedSeeds) {
  Rng rng(11);
  const std::vector<MqoProblem> problems = MqoBatch(4, &rng);
  anneal::SolverOptions options;
  options.num_reads = 5;
  options.num_sweeps = 200;
  options.seed = 99;
  auto batch = SolveMqoBatch(problems, "simulated_annealing", options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), problems.size());
  for (size_t i = 0; i < problems.size(); ++i) {
    anneal::SolverOptions single = options;
    single.seed = options.seed + i;
    auto solo = SolveMqo(problems[i], "simulated_annealing", single);
    ASSERT_TRUE(solo.ok()) << solo.status();
    EXPECT_EQ((*batch)[i].plan_choice, solo->plan_choice) << "instance " << i;
    EXPECT_EQ((*batch)[i].feasible, solo->feasible) << "instance " << i;
  }
}

TEST(BatchSolverTest, SolveMqoBatchIsThreadCountInvariant) {
  Rng rng(12);
  const std::vector<MqoProblem> problems = MqoBatch(6, &rng);
  anneal::SolverOptions options;
  options.num_reads = 5;
  options.num_sweeps = 200;
  options.seed = 7;
  auto one = SolveMqoBatch(problems, "simulated_annealing", options, 0.0, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  for (int threads : {2, 8}) {
    auto many =
        SolveMqoBatch(problems, "simulated_annealing", options, 0.0, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    ASSERT_EQ(many->size(), one->size());
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_EQ((*many)[i].plan_choice, (*one)[i].plan_choice)
          << threads << " threads, instance " << i;
      EXPECT_EQ((*many)[i].cost, (*one)[i].cost)
          << threads << " threads, instance " << i;
    }
  }
}

TEST(BatchSolverTest, SolveTxnScheduleEpochsSolvesEveryEpochDeterministically) {
  Rng rng(13);
  std::vector<TxnScheduleProblem> epochs;
  for (int e = 0; e < 5; ++e) {
    epochs.push_back(GenerateTxnSchedule(5, 5, 2, /*num_slots=*/0, &rng));
  }
  anneal::SolverOptions options;
  options.num_reads = 10;
  options.num_sweeps = 400;
  options.seed = 21;
  auto one = SolveTxnScheduleEpochs(epochs, "simulated_annealing", options,
                                    0.0, 1.0, 1);
  ASSERT_TRUE(one.ok()) << one.status();
  ASSERT_EQ(one->size(), epochs.size());
  for (const Schedule& schedule : *one) {
    EXPECT_TRUE(schedule.feasible);
  }
  for (int threads : {2, 8}) {
    auto many = SolveTxnScheduleEpochs(epochs, "simulated_annealing", options,
                                       0.0, 1.0, threads);
    ASSERT_TRUE(many.ok()) << many.status();
    ASSERT_EQ(many->size(), one->size());
    for (size_t i = 0; i < one->size(); ++i) {
      EXPECT_EQ((*many)[i].slot_of_txn, (*one)[i].slot_of_txn)
          << threads << " threads, epoch " << i;
    }
  }
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
