#include <gtest/gtest.h>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/schema_matching.h"

namespace qdm {
namespace qopt {
namespace {

SchemaMatchingProblem TinyProblem() {
  // 2x2 with a clear diagonal matching.
  SchemaMatchingProblem p;
  p.source_attributes = {"a", "b"};
  p.target_attributes = {"x", "y"};
  p.similarity = {{0.9, 0.2}, {0.1, 0.8}};
  return p;
}

TEST(SchemaMatchingTest, HungarianFindsDiagonal) {
  Matching m = HungarianMatching(TinyProblem());
  ASSERT_EQ(m.pairs.size(), 2u);
  EXPECT_EQ(m.pairs[0], (std::pair<int, int>{0, 0}));
  EXPECT_EQ(m.pairs[1], (std::pair<int, int>{1, 1}));
  EXPECT_NEAR(m.total_similarity, 1.7, 1e-12);
}

TEST(SchemaMatchingTest, HungarianBeatsGreedyOnAdversarialCase) {
  // Greedy grabs (0,0)=0.9 then is stuck with (1,1)=0.1: total 1.0.
  // Optimal is (0,1)+(1,0) = 0.8 + 0.8 = 1.6.
  SchemaMatchingProblem p;
  p.source_attributes = {"a", "b"};
  p.target_attributes = {"x", "y"};
  p.similarity = {{0.9, 0.8}, {0.8, 0.1}};
  Matching greedy = GreedyMatching(p);
  Matching optimal = HungarianMatching(p);
  EXPECT_NEAR(greedy.total_similarity, 1.0, 1e-12);
  EXPECT_NEAR(optimal.total_similarity, 1.6, 1e-12);
}

TEST(SchemaMatchingTest, HungarianMatchesBruteForceOnRandomInstances) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    SchemaMatchingProblem p = GenerateSchemaMatching(4, 4, 0.1, &rng);
    // Brute force over all 4! complete matchings (leaving attributes
    // unmatched never helps with nonnegative similarities).
    std::vector<int> perm{0, 1, 2, 3};
    double best = 0;
    do {
      double total = 0;
      for (int i = 0; i < 4; ++i) total += p.similarity[i][perm[i]];
      best = std::max(best, total);
    } while (std::next_permutation(perm.begin(), perm.end()));
    Matching m = HungarianMatching(p);
    EXPECT_NEAR(m.total_similarity, best, 1e-9);
  }
}

TEST(SchemaMatchingTest, RectangularInstances) {
  Rng rng(5);
  SchemaMatchingProblem p = GenerateSchemaMatching(3, 5, 0.05, &rng);
  Matching m = HungarianMatching(p);
  EXPECT_TRUE(m.feasible);
  EXPECT_LE(m.pairs.size(), 3u);
  // Every source matched at most once.
  std::set<int> sources, targets;
  for (auto [i, j] : m.pairs) {
    EXPECT_TRUE(sources.insert(i).second);
    EXPECT_TRUE(targets.insert(j).second);
  }
}

TEST(SchemaMatchingQuboTest, FeasibleEnergyIsNegativeSimilarity) {
  SchemaMatchingProblem p = TinyProblem();
  anneal::Qubo qubo = SchemaMatchingToQubo(p);
  anneal::Assignment x(4, 0);
  x[p.VarIndex(0, 0)] = 1;
  x[p.VarIndex(1, 1)] = 1;
  EXPECT_NEAR(qubo.Energy(x), -1.7, 1e-12);
}

TEST(SchemaMatchingQuboTest, GroundStateMatchesHungarian) {
  Rng rng(7);
  for (int trial = 0; trial < 6; ++trial) {
    SchemaMatchingProblem p = GenerateSchemaMatching(4, 4, 0.1, &rng);
    anneal::Qubo qubo = SchemaMatchingToQubo(p);
    anneal::Sample ground = anneal::ExactSolver::Solve(qubo);
    Matching decoded = DecodeMatching(p, ground.assignment);
    ASSERT_TRUE(decoded.feasible);
    Matching optimal = HungarianMatching(p);
    EXPECT_NEAR(decoded.total_similarity, optimal.total_similarity, 1e-9);
  }
}

TEST(SchemaMatchingQuboTest, DoubleMatchingIsPenalized) {
  SchemaMatchingProblem p = TinyProblem();
  anneal::Qubo qubo = SchemaMatchingToQubo(p);
  // Source 0 matched to both targets.
  anneal::Assignment x(4, 0);
  x[p.VarIndex(0, 0)] = 1;
  x[p.VarIndex(0, 1)] = 1;
  EXPECT_GT(qubo.Energy(x), 0.0) << "violation must outweigh similarity gain";
  EXPECT_FALSE(DecodeMatching(p, x).feasible);
}

TEST(SchemaMatchingEndToEndTest, AnnealerRecoversPlantedMatching) {
  Rng rng(11);
  anneal::SolverOptions options;
  options.num_reads = 20;
  options.num_sweeps = 300;
  int optimal_count = 0;
  for (int trial = 0; trial < 5; ++trial) {
    options.seed = 11 + trial;
    SchemaMatchingProblem p = GenerateSchemaMatching(5, 5, 0.05, &rng);
    Result<Matching> decoded =
        SolveSchemaMatching(p, "simulated_annealing", options);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    Matching optimal = HungarianMatching(p);
    if (decoded->feasible &&
        decoded->total_similarity >= optimal.total_similarity - 1e-9) {
      ++optimal_count;
    }
  }
  EXPECT_GE(optimal_count, 4);
}

TEST(SchemaMatchingGeneratorTest, PlantedPairsAreStrong) {
  Rng rng(13);
  SchemaMatchingProblem p = GenerateSchemaMatching(6, 6, 0.0, &rng);
  // With zero noise, Hungarian should recover a matching with total
  // similarity >= 6 * 0.7.
  Matching m = HungarianMatching(p);
  EXPECT_GE(m.total_similarity, 6 * 0.7 - 1e-9);
}

}  // namespace
}  // namespace qopt
}  // namespace qdm
