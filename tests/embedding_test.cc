#include <gtest/gtest.h>

#include <set>

#include "qdm/anneal/chimera.h"
#include "qdm/anneal/embedding.h"
#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {
namespace {

TEST(ChimeraTest, QubitCountAndIds) {
  ChimeraGraph g(2, 3, 4);
  EXPECT_EQ(g.num_qubits(), 2 * 3 * 8);
  std::set<int> ids;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) {
      for (int k = 0; k < 4; ++k) {
        ids.insert(g.VerticalQubit(r, c, k));
        ids.insert(g.HorizontalQubit(r, c, k));
      }
    }
  }
  EXPECT_EQ(static_cast<int>(ids.size()), g.num_qubits());
}

TEST(ChimeraTest, InCellBipartiteEdges) {
  ChimeraGraph g(1, 1, 4);
  for (int kv = 0; kv < 4; ++kv) {
    for (int kh = 0; kh < 4; ++kh) {
      EXPECT_TRUE(
          g.HasEdge(g.VerticalQubit(0, 0, kv), g.HorizontalQubit(0, 0, kh)));
    }
  }
  // No edges within a shore.
  EXPECT_FALSE(g.HasEdge(g.VerticalQubit(0, 0, 0), g.VerticalQubit(0, 0, 1)));
  EXPECT_FALSE(
      g.HasEdge(g.HorizontalQubit(0, 0, 2), g.HorizontalQubit(0, 0, 3)));
}

TEST(ChimeraTest, InterCellCouplers) {
  ChimeraGraph g(3, 3, 2);
  // Vertical couplers connect same column/offset, adjacent rows.
  EXPECT_TRUE(g.HasEdge(g.VerticalQubit(0, 1, 0), g.VerticalQubit(1, 1, 0)));
  EXPECT_FALSE(g.HasEdge(g.VerticalQubit(0, 1, 0), g.VerticalQubit(2, 1, 0)));
  EXPECT_FALSE(g.HasEdge(g.VerticalQubit(0, 1, 0), g.VerticalQubit(1, 1, 1)));
  // Horizontal couplers connect same row/offset, adjacent columns.
  EXPECT_TRUE(
      g.HasEdge(g.HorizontalQubit(2, 0, 1), g.HorizontalQubit(2, 1, 1)));
  EXPECT_FALSE(
      g.HasEdge(g.HorizontalQubit(2, 0, 1), g.HorizontalQubit(1, 0, 1)));
}

TEST(ChimeraTest, EdgesListMatchesHasEdge) {
  ChimeraGraph g(2, 2, 2);
  auto edges = g.Edges();
  std::set<std::pair<int, int>> edge_set(edges.begin(), edges.end());
  EXPECT_EQ(edges.size(), edge_set.size()) << "duplicate edges";
  int count = 0;
  for (int a = 0; a < g.num_qubits(); ++a) {
    for (int b = a + 1; b < g.num_qubits(); ++b) {
      if (g.HasEdge(a, b)) {
        ++count;
        EXPECT_TRUE(edge_set.count({a, b})) << a << "-" << b;
      }
    }
  }
  EXPECT_EQ(static_cast<int>(edges.size()), count);
}

TEST(CliqueEmbeddingTest, ChainsAreConnectedAndDisjoint) {
  ChimeraGraph g(4, 4, 4);
  auto result = CliqueEmbedding(16, g);
  ASSERT_TRUE(result.ok());
  const Embedding& e = *result;
  ASSERT_EQ(e.num_logical(), 16);

  std::set<int> used;
  for (const auto& chain : e.chains) {
    for (int q : chain) {
      EXPECT_TRUE(used.insert(q).second) << "qubit " << q << " reused";
    }
    // Connectivity: BFS within the chain.
    std::set<int> visited{chain[0]};
    std::vector<int> frontier{chain[0]};
    while (!frontier.empty()) {
      int cur = frontier.back();
      frontier.pop_back();
      for (int q : chain) {
        if (!visited.count(q) && g.HasEdge(cur, q)) {
          visited.insert(q);
          frontier.push_back(q);
        }
      }
    }
    EXPECT_EQ(visited.size(), chain.size()) << "chain not connected";
  }
}

TEST(CliqueEmbeddingTest, EveryPairOfChainsIsCoupled) {
  ChimeraGraph g(3, 3, 4);
  auto result = CliqueEmbedding(12, g);
  ASSERT_TRUE(result.ok());
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) {
      bool found = false;
      for (int a : result->chains[i]) {
        for (int b : result->chains[j]) {
          found |= g.HasEdge(a, b);
        }
      }
      EXPECT_TRUE(found) << "chains " << i << "," << j << " not adjacent";
    }
  }
}

TEST(CliqueEmbeddingTest, RejectsOversizedCliques) {
  ChimeraGraph g(2, 2, 4);
  auto result = CliqueEmbedding(9, g);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EmbedQuboTest, PhysicalCouplingsLieOnHardwareEdges) {
  Rng rng(5);
  Qubo logical(6);
  for (int i = 0; i < 6; ++i) logical.AddLinear(i, rng.Uniform(-1, 1));
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      logical.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  ChimeraGraph g(2, 2, 4);
  auto embedding = CliqueEmbedding(6, g);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbedQubo(logical, *embedding, g, 2.0);
  ASSERT_TRUE(embedded.ok());
  for (const auto& [key, w] : embedded->physical.quadratic_terms()) {
    if (w == 0.0) continue;
    EXPECT_TRUE(g.HasEdge(key.first, key.second))
        << key.first << "-" << key.second << " is not a hardware coupler";
  }
}

TEST(EmbedQuboTest, AlignedGroundStateReproducesLogicalEnergy) {
  // Small logical problem; check that the embedded problem's exact optimum
  // unembeds to the logical optimum with matching energy.
  Qubo logical(3);
  logical.AddLinear(0, 0.5);
  logical.AddLinear(1, -1.0);
  logical.AddQuadratic(0, 1, 2.0);
  logical.AddQuadratic(1, 2, -1.5);
  logical.AddQuadratic(0, 2, 0.7);

  ChimeraGraph g(1, 1, 4);  // K_4 embeds in one cell (chain length 2).
  auto embedding = CliqueEmbedding(3, g);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbedQubo(logical, *embedding, g, 4.0);
  ASSERT_TRUE(embedded.ok());

  // The physical problem only involves the 6 qubits of the used chains, but
  // spans 8 variables; exact-solve it.
  Sample physical_best = ExactSolver::Solve(embedded->physical);
  Sample unembedded = Unembed(logical, *embedded, physical_best);

  Sample logical_best = ExactSolver::Solve(logical);
  EXPECT_NEAR(unembedded.energy, logical_best.energy, 1e-9);
  EXPECT_EQ(unembedded.chain_break_fraction, 0.0);
  // With a strong chain, physical ground energy == logical ground energy.
  EXPECT_NEAR(physical_best.energy, logical_best.energy, 1e-9);
}

TEST(EmbeddedBackendTest, EndToEndMatchesLogicalOptimum) {
  Rng rng(9);
  Qubo logical(8);
  for (int i = 0; i < 8; ++i) logical.AddLinear(i, rng.Uniform(-1, 1));
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      if (rng.Bernoulli(0.5)) logical.AddQuadratic(i, j, rng.Uniform(-1, 1));
    }
  }
  const double optimum = ExactSolver::Solve(logical).energy;

  SolverOptions options;
  options.num_reads = 20;
  options.seed = 9;
  options.num_sweeps = 400;
  options.chain_strength = 3.0;
  Result<SampleSet> set = SolveWith(
      "embedded:simulated_annealing:chimera:2x2x4", logical, options);
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_NEAR(set->best().energy, optimum, 1e-9);
}

TEST(EmbeddedBackendTest, WeakChainsBreak) {
  // With a vanishing chain strength, frustrated logical couplings tear chains
  // apart; the sampler should report chain breaks.
  Qubo logical(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      logical.AddQuadratic(i, j, 5.0);  // Strong mutual repulsion.
    }
  }
  for (int i = 0; i < 6; ++i) logical.AddLinear(i, -7.0);

  SolverOptions weak;
  weak.num_reads = 30;
  weak.seed = 21;
  weak.num_sweeps = 100;
  weak.chain_strength = 0.05;
  Result<SampleSet> set = SolveWith(
      "embedded:simulated_annealing:chimera:2x2x4", logical, weak);
  ASSERT_TRUE(set.ok()) << set.status();
  double total_breaks = 0;
  for (const auto& s : set->samples()) total_breaks += s.chain_break_fraction;
  EXPECT_GT(total_breaks, 0.0);
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
