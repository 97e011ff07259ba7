#include <gtest/gtest.h>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/txn_scheduling.h"

namespace qdm {
namespace qopt {
namespace {

TxnScheduleProblem TriangleProblem() {
  // Three mutually conflicting transactions (all lock object 0) plus one
  // independent transaction; 3 slots.
  TxnScheduleProblem p;
  p.lock_sets = {{0, 1}, {0, 2}, {0, 3}, {7}};
  p.num_slots = 3;
  return p;
}

TEST(TxnProblemTest, ConflictDetection) {
  TxnScheduleProblem p = TriangleProblem();
  EXPECT_TRUE(p.Conflict(0, 1));
  EXPECT_TRUE(p.Conflict(0, 2));
  EXPECT_TRUE(p.Conflict(1, 2));
  EXPECT_FALSE(p.Conflict(0, 3));
  EXPECT_EQ(p.ConflictPairs().size(), 3u);
}

TEST(TxnQuboTest, GroundStateIsConflictFreeWithMinimalMakespan) {
  TxnScheduleProblem p = TriangleProblem();
  anneal::Qubo qubo = TxnScheduleToQubo(p);
  anneal::Sample ground = anneal::ExactSolver::Solve(qubo);
  Schedule schedule = DecodeSchedule(p, ground.assignment);
  ASSERT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.conflicting_pairs_same_slot, 0);
  // The three conflicting txns need 3 distinct slots; txn 3 slots anywhere
  // early. Optimal makespan is 3.
  EXPECT_EQ(schedule.makespan, 3);
}

TEST(TxnQuboTest, ConflictSharingCostsMoreThanAnyCompression) {
  TxnScheduleProblem p = TriangleProblem();
  anneal::Qubo qubo = TxnScheduleToQubo(p);
  // All txns in slot 0: feasible assignment-wise but full of conflicts.
  anneal::Assignment crowded(p.num_variables(), 0);
  for (int t = 0; t < p.num_txns(); ++t) crowded[p.VarIndex(t, 0)] = 1;
  // Proper coloring: t0->0, t1->1, t2->2, t3->0.
  anneal::Assignment proper(p.num_variables(), 0);
  proper[p.VarIndex(0, 0)] = 1;
  proper[p.VarIndex(1, 1)] = 1;
  proper[p.VarIndex(2, 2)] = 1;
  proper[p.VarIndex(3, 0)] = 1;
  EXPECT_GT(qubo.Energy(crowded), qubo.Energy(proper));
}

TEST(TxnBaselineTest, GreedyColoringIsConflictFree) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    TxnScheduleProblem p = GenerateTxnSchedule(8, 10, 2, 0, &rng);
    Schedule schedule = GreedyColoringSchedule(p);
    ASSERT_TRUE(schedule.feasible);
    EXPECT_EQ(schedule.conflicting_pairs_same_slot, 0);
    EXPECT_LE(schedule.makespan, p.num_slots);
  }
}

TEST(TxnBaselineTest, ExhaustiveFindsMinimalMakespan) {
  TxnScheduleProblem p = TriangleProblem();
  Schedule best = ExhaustiveSchedule(p);
  ASSERT_TRUE(best.feasible);
  EXPECT_EQ(best.makespan, 3);
  EXPECT_EQ(best.conflicting_pairs_same_slot, 0);
}

TEST(TwoPhaseLockingTest, ConflictFreeScheduleHasNoBlocking) {
  TxnScheduleProblem p = TriangleProblem();
  Schedule schedule = GreedyColoringSchedule(p);
  BlockingReport report = SimulateTwoPhaseLocking(p, schedule);
  EXPECT_EQ(report.total_wait_steps, 0);
  EXPECT_FALSE(report.deadlock);
  EXPECT_EQ(report.completed_txns, p.num_txns());
}

TEST(TwoPhaseLockingTest, CoLocatedConflictsCauseBlocking) {
  TxnScheduleProblem p = TriangleProblem();
  Schedule crowded;
  crowded.slot_of_txn = {0, 0, 0, 0};
  crowded.feasible = true;
  crowded.makespan = 1;
  for (const auto& [a, b] : p.ConflictPairs()) {
    if (crowded.slot_of_txn[a] == crowded.slot_of_txn[b]) {
      ++crowded.conflicting_pairs_same_slot;
    }
  }
  BlockingReport report = SimulateTwoPhaseLocking(p, crowded);
  EXPECT_GT(report.total_wait_steps, 0);
  EXPECT_EQ(report.completed_txns, p.num_txns());
  EXPECT_FALSE(report.deadlock) << "sorted acquisition avoids deadlock";
}

TEST(TwoPhaseLockingTest, QuboScheduleEliminatesBlocking) {
  // The headline claim of [29, 30]: annealing-derived schedules avoid
  // blocking entirely.
  Rng rng(7);
  anneal::SolverOptions options;
  options.num_reads = 20;
  options.num_sweeps = 400;
  for (int trial = 0; trial < 4; ++trial) {
    options.seed = 7 + trial;
    TxnScheduleProblem p = GenerateTxnSchedule(6, 8, 2, 0, &rng);
    Result<Schedule> schedule =
        SolveTxnSchedule(p, "simulated_annealing", options);
    ASSERT_TRUE(schedule.ok()) << schedule.status();
    ASSERT_TRUE(schedule->feasible);
    EXPECT_EQ(schedule->conflicting_pairs_same_slot, 0);
    BlockingReport report = SimulateTwoPhaseLocking(p, *schedule);
    EXPECT_EQ(report.total_wait_steps, 0);
  }
}

TEST(TxnGroverTest, GroverScheduleSearchMatchesExhaustive) {
  // The Grover-based variant of [31] on a tiny instance: 4 txns x 2 slots =
  // 8 qubits.
  TxnScheduleProblem p;
  p.lock_sets = {{0}, {0}, {1}, {1}};
  p.num_slots = 2;
  anneal::SolverOptions options;
  options.num_reads = 3;
  options.seed = 11;
  Result<Schedule> schedule = SolveTxnSchedule(p, "grover_min", options);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  ASSERT_TRUE(schedule->feasible);
  EXPECT_EQ(schedule->conflicting_pairs_same_slot, 0);
  EXPECT_EQ(schedule->makespan, 2);
}

TEST(TxnGeneratorTest, AutoSlotsAdmitConflictFreeSchedule) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    TxnScheduleProblem p = GenerateTxnSchedule(10, 6, 2, 0, &rng);
    Schedule greedy = GreedyColoringSchedule(p);
    EXPECT_LE(greedy.makespan, p.num_slots)
        << "degree+1 slots must suffice for greedy coloring";
  }
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
