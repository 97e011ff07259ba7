#include <gtest/gtest.h>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/bilp.h"

namespace qdm {
namespace qopt {
namespace {

/// Tiny knapsack-like BILP with a known answer:
/// min -3x0 - 4x1 - 2x2  s.t.  2x0 + 3x1 + x2 <= 4  ->  x = (1, 0, 1)? value
/// candidates: {x0,x1} weight 5 infeasible; {x1,x2} weight 4 value -6;
/// {x0,x2} weight 3 value -5; so optimum is {x1, x2} with -6.
BilpProblem Knapsack() {
  BilpProblem p;
  p.num_variables = 3;
  p.objective = {-3, -4, -2};
  BilpConstraint c;
  c.coefficients = {2, 3, 1};
  c.relation = BilpConstraint::Relation::kLessEq;
  c.bound = 4;
  p.constraints.push_back(c);
  return p;
}

TEST(BilpTest, ObjectiveAndFeasibility) {
  BilpProblem p = Knapsack();
  EXPECT_DOUBLE_EQ(p.Objective({1, 1, 0}), -7);
  EXPECT_FALSE(p.IsFeasible({1, 1, 0}));  // Weight 5 > 4.
  EXPECT_TRUE(p.IsFeasible({0, 1, 1}));
}

TEST(BilpTest, BranchAndBoundSolvesKnapsack) {
  BilpSolution s = SolveBilpBranchAndBound(Knapsack());
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.objective, -6);
  EXPECT_EQ(s.assignment, (anneal::Assignment{0, 1, 1}));
  EXPECT_GT(s.nodes_explored, 0);
}

TEST(BilpTest, DetectsInfeasibility) {
  BilpProblem p;
  p.num_variables = 2;
  p.objective = {1, 1};
  BilpConstraint c;
  c.coefficients = {1, 1};
  c.relation = BilpConstraint::Relation::kGreaterEq;
  c.bound = 3;  // Impossible with two binaries.
  p.constraints.push_back(c);
  EXPECT_FALSE(SolveBilpBranchAndBound(p).feasible);
}

TEST(BilpTest, BranchAndBoundMatchesBruteForceOnRandomInstances) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    BilpProblem p;
    p.num_variables = 8;
    p.objective.resize(8);
    for (double& c : p.objective) c = std::round(rng.Uniform(-5, 5));
    for (int r = 0; r < 3; ++r) {
      BilpConstraint c;
      c.coefficients.resize(8);
      for (double& a : c.coefficients) a = std::round(rng.Uniform(-2, 3));
      c.relation = static_cast<BilpConstraint::Relation>(rng.UniformInt(0, 2));
      c.bound = std::round(rng.Uniform(0, 6));
      p.constraints.push_back(c);
    }

    // Brute force.
    double best = 1e300;
    bool any = false;
    for (uint32_t mask = 0; mask < 256; ++mask) {
      anneal::Assignment x(8);
      for (int i = 0; i < 8; ++i) x[i] = (mask >> i) & 1;
      if (p.IsFeasible(x)) {
        any = true;
        best = std::min(best, p.Objective(x));
      }
    }
    BilpSolution s = SolveBilpBranchAndBound(p);
    EXPECT_EQ(s.feasible, any);
    if (any) {
      EXPECT_NEAR(s.objective, best, 1e-9);
      EXPECT_TRUE(p.IsFeasible(s.assignment));
    }
  }
}

TEST(BilpToQuboTest, GroundStateMatchesBranchAndBound) {
  BilpProblem p = Knapsack();
  auto qubo = BilpToQubo(p);
  ASSERT_TRUE(qubo.ok());
  // 3 decision vars + slack bits for range 4 (3 bits).
  EXPECT_EQ(qubo->num_variables(), 6);

  anneal::Sample ground = anneal::ExactSolver::Solve(*qubo);
  anneal::Assignment decision(ground.assignment.begin(),
                              ground.assignment.begin() + 3);
  EXPECT_TRUE(p.IsFeasible(decision));
  EXPECT_NEAR(p.Objective(decision), -6, 1e-9);
  // Ground energy equals the BILP objective (penalties vanish).
  EXPECT_NEAR(ground.energy, -6, 1e-9);
}

TEST(BilpToQuboTest, EqualityConstraintsNeedNoSlack) {
  BilpProblem p;
  p.num_variables = 3;
  p.objective = {1, 2, 3};
  BilpConstraint c;
  c.coefficients = {1, 1, 1};
  c.relation = BilpConstraint::Relation::kEq;
  c.bound = 2;
  p.constraints.push_back(c);

  auto qubo = BilpToQubo(p);
  ASSERT_TRUE(qubo.ok());
  EXPECT_EQ(qubo->num_variables(), 3);
  anneal::Sample ground = anneal::ExactSolver::Solve(*qubo);
  // Optimal pick of exactly two: {x0, x1} with objective 3.
  EXPECT_NEAR(ground.energy, 3, 1e-9);
}

TEST(BilpToQuboTest, RejectsNonIntegerInequalities) {
  BilpProblem p;
  p.num_variables = 2;
  p.objective = {1, 1};
  BilpConstraint c;
  c.coefficients = {0.5, 1};
  c.relation = BilpConstraint::Relation::kLessEq;
  c.bound = 1;
  p.constraints.push_back(c);
  EXPECT_EQ(BilpToQubo(p).status().code(), StatusCode::kInvalidArgument);
}

TEST(BilpApplicationsTest, SchemaMatchingBilpMatchesHungarian) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    SchemaMatchingProblem p = GenerateSchemaMatching(4, 4, 0.1, &rng);
    BilpSolution s = SolveBilpBranchAndBound(SchemaMatchingToBilp(p));
    ASSERT_TRUE(s.feasible);
    Matching optimal = HungarianMatching(p);
    EXPECT_NEAR(-s.objective, optimal.total_similarity, 1e-9);
  }
}

TEST(BilpApplicationsTest, TxnBilpIsConflictFreeAndMinimal) {
  Rng rng(11);
  TxnScheduleProblem p = GenerateTxnSchedule(5, 6, 2, 0, &rng);
  BilpSolution s = SolveBilpBranchAndBound(TxnScheduleToBilp(p));
  ASSERT_TRUE(s.feasible);
  Schedule schedule = DecodeSchedule(p, s.assignment);
  ASSERT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.conflicting_pairs_same_slot, 0);
  EXPECT_EQ(schedule.makespan, ExhaustiveSchedule(p).makespan);
}

TEST(BilpApplicationsTest, FullPipelineBilpToQuboToAnnealer) {
  // The complete Table-I route of [23, 24]: problem -> BILP -> QUBO ->
  // sampler, checked against branch & bound.
  Rng rng(13);
  SchemaMatchingProblem p = GenerateSchemaMatching(3, 3, 0.1, &rng);
  BilpProblem bilp = SchemaMatchingToBilp(p);
  auto qubo = BilpToQubo(bilp);
  ASSERT_TRUE(qubo.ok());

  anneal::SolverOptions options;
  options.num_reads = 20;
  options.seed = 13;
  Result<anneal::SampleSet> set =
      anneal::SolveWith("tabu_search", *qubo, options);
  ASSERT_TRUE(set.ok()) << set.status();
  anneal::Assignment decision(set->best().assignment.begin(),
                              set->best().assignment.begin() +
                                  bilp.num_variables);
  BilpSolution reference = SolveBilpBranchAndBound(bilp);
  ASSERT_TRUE(bilp.IsFeasible(decision));
  EXPECT_NEAR(bilp.Objective(decision), reference.objective, 1e-9);
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
