#include <gtest/gtest.h>

#include <algorithm>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/db/join_optimizer.h"
#include "qdm/qopt/join_order_qubo.h"

namespace qdm {
namespace qopt {
namespace {

anneal::Assignment PermutationAssignment(const JoinOrderQubo& encoding,
                                         const std::vector<int>& order) {
  anneal::Assignment x(encoding.num_variables(), 0);
  for (size_t s = 0; s < order.size(); ++s) {
    x[encoding.VarIndex(order[s], static_cast<int>(s))] = 1;
  }
  return x;
}

TEST(JoinOrderQuboTest, FeasibleEnergiesEqualLogProxy) {
  Rng rng(3);
  db::JoinGraph g = db::JoinGraph::RandomChain(4, &rng);
  JoinOrderQubo encoding(g);
  std::vector<int> order{0, 1, 2, 3};
  do {
    anneal::Assignment x = PermutationAssignment(encoding, order);
    EXPECT_NEAR(encoding.qubo().Energy(x), LogCostProxy(order, g), 1e-9);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(JoinOrderQuboTest, GroundStateIsProxyOptimalPermutation) {
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    db::JoinGraph g = db::MakeRandomQuery(
        static_cast<db::QueryShape>(trial % 4), 4, &rng);
    JoinOrderQubo encoding(g);
    anneal::Sample ground = anneal::ExactSolver::Solve(encoding.qubo());
    std::vector<int> order = encoding.Decode(ground.assignment);
    ASSERT_FALSE(order.empty()) << "ground state must be a permutation";
    std::vector<int> proxy_best = OptimalOrderUnderProxy(g);
    EXPECT_NEAR(LogCostProxy(order, g), LogCostProxy(proxy_best, g), 1e-9);
  }
}

TEST(JoinOrderQuboTest, InfeasibleAssignmentsCostMoreThanAnyPermutation) {
  Rng rng(7);
  db::JoinGraph g = db::JoinGraph::RandomStar(4, &rng);
  JoinOrderQubo encoding(g);

  double worst_feasible = -1e300;
  std::vector<int> order{0, 1, 2, 3};
  do {
    worst_feasible = std::max(
        worst_feasible,
        encoding.qubo().Energy(PermutationAssignment(encoding, order)));
  } while (std::next_permutation(order.begin(), order.end()));

  anneal::Assignment empty(encoding.num_variables(), 0);
  EXPECT_GT(encoding.qubo().Energy(empty), worst_feasible);

  // Relation 0 placed twice, relation 1 nowhere.
  anneal::Assignment broken = PermutationAssignment(encoding, {0, 2, 3, 0});
  EXPECT_GT(encoding.qubo().Energy(broken), worst_feasible);
}

TEST(JoinOrderQuboTest, StrictDecodeRejectsBrokenSamples) {
  Rng rng(9);
  db::JoinGraph g = db::JoinGraph::RandomChain(4, &rng);
  JoinOrderQubo encoding(g);
  anneal::Assignment empty(encoding.num_variables(), 0);
  EXPECT_TRUE(encoding.Decode(empty).empty());

  anneal::Assignment valid = PermutationAssignment(encoding, {2, 0, 3, 1});
  EXPECT_EQ(encoding.Decode(valid), (std::vector<int>{2, 0, 3, 1}));
}

TEST(JoinOrderQuboTest, RepairAlwaysYieldsPermutation) {
  Rng rng(11);
  db::JoinGraph g = db::JoinGraph::RandomCycle(5, &rng);
  JoinOrderQubo encoding(g);
  for (int trial = 0; trial < 20; ++trial) {
    anneal::Assignment x(encoding.num_variables());
    for (auto& b : x) b = rng.Bernoulli(0.3);
    std::vector<int> order = encoding.DecodeWithRepair(x);
    ASSERT_EQ(order.size(), 5u);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

TEST(JoinOrderQuboTest, ProxyOptimumTracksCoutOptimum) {
  // The log proxy is not identical to C_out, but on standard workloads the
  // proxy-optimal order should be close to the true optimum in C_out terms.
  Rng rng(13);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 12; ++trial) {
    db::JoinGraph g = db::MakeRandomQuery(
        static_cast<db::QueryShape>(trial % 4), 6, &rng);
    std::vector<int> proxy_best = OptimalOrderUnderProxy(g);
    const double proxy_cout = db::PermutationCost(proxy_best, g);
    const double true_cout = db::OptimalLeftDeepPlan(g).cost;
    worst_ratio = std::max(worst_ratio, proxy_cout / true_cout);
  }
  EXPECT_LT(worst_ratio, 50.0)
      << "proxy should stay within ~an order of magnitude of C_out optimal";
}

TEST(JoinOrderEndToEndTest, AnnealerFindsProxyOptimalOrder) {
  Rng rng(17);
  anneal::SolverOptions options;
  options.num_reads = 30;
  options.num_sweeps = 500;
  int solved = 0;
  for (int trial = 0; trial < 5; ++trial) {
    options.seed = 17 + trial;
    db::JoinGraph g = db::JoinGraph::RandomChain(4, &rng);
    Result<JoinOrderSolution> solution =
        SolveJoinOrder(g, "simulated_annealing", options);
    ASSERT_TRUE(solution.ok()) << solution.status();
    if (!solution->strict_feasible) continue;
    if (LogCostProxy(solution->order, g) <=
        LogCostProxy(OptimalOrderUnderProxy(g), g) + 1e-9) {
      ++solved;
    }
  }
  EXPECT_GE(solved, 4);
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
