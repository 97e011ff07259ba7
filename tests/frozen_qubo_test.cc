// Property battery for the classical kernel (frozen_qubo.h): the CSR model
// and the incrementally maintained local fields that SA, PT, tabu and the
// exact Gray-code walk all run on.

#include "qdm/anneal/frozen_qubo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {
namespace {

Qubo RandomQubo(int n, double density, Rng* rng) {
  Qubo q(n);
  q.AddOffset(rng->Uniform(-3, 3));
  for (int i = 0; i < n; ++i) q.AddLinear(i, rng->Uniform(-2, 2));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) q.AddQuadratic(i, j, rng->Uniform(-2, 2));
    }
  }
  return q;
}

// A sparse ring-plus-chords QUBO: every variable has degree 2 or 3.
Qubo SparseQubo(int n, Rng* rng) {
  Qubo q(n);
  for (int i = 0; i < n; ++i) q.AddLinear(i, rng->Uniform(-1, 1));
  for (int i = 0; i < n; ++i) {
    q.AddQuadratic(i, (i + 1) % n, rng->Uniform(-1, 1));
    if (i % 7 == 0) q.AddQuadratic(i, (i + n / 2) % n, rng->Uniform(-1, 1));
  }
  return q;
}

// Explicit zeros: a term added as 0.0, a term that cancels to 0.0, a zero
// linear coefficient and a variable with no couplings at all.
Qubo ZeroWeightQubo() {
  Qubo q(6);
  q.AddLinear(0, 1.5);
  q.AddLinear(1, -0.25);
  q.AddLinear(3, 0.75);
  q.AddQuadratic(0, 1, 0.0);
  q.AddQuadratic(1, 2, 0.5);
  q.AddQuadratic(2, 1, -0.5);
  q.AddQuadratic(0, 3, -1.25);
  q.AddQuadratic(2, 3, 2.0);
  q.AddQuadratic(3, 4, 0.0);
  return q;
}

Qubo SingleVariableQubo() {
  Qubo q(1);
  q.AddOffset(0.5);
  q.AddLinear(0, -1.0);
  return q;
}

// Scale of row i: the sum of the magnitudes that enter its field. Rounding
// error in a maintained field is relative to this, not to the field itself
// (which may cancel to zero).
double RowScale(const FrozenQubo& model, int i) {
  double scale = std::abs(model.linear(i));
  for (int k = model.row_begin(i); k < model.row_end(i); ++k) {
    scale += std::abs(model.weights()[k]);
  }
  return std::max(scale, 1.0);
}

struct KernelCase {
  std::string name;
  Qubo qubo;
};

std::vector<KernelCase> KernelCases() {
  Rng rng(11);
  std::vector<KernelCase> cases;
  cases.push_back({"dense", RandomQubo(24, 1.0, &rng)});
  cases.push_back({"sparse", SparseQubo(200, &rng)});
  cases.push_back({"single_variable", SingleVariableQubo()});
  cases.push_back({"zero_weight_terms", ZeroWeightQubo()});
  return cases;
}

TEST(FrozenQuboTest, RowsAreSortedSymmetricAndDropZeroWeights) {
  for (const KernelCase& c : KernelCases()) {
    SCOPED_TRACE(c.name);
    const FrozenQubo model(c.qubo);
    const int n = model.num_variables();
    int nonzero_terms = 0;
    for (const auto& [key, w] : c.qubo.quadratic_terms()) {
      if (w != 0.0) ++nonzero_terms;
    }
    EXPECT_EQ(model.row_end(n - 1), 2 * nonzero_terms);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(model.linear(i), c.qubo.linear(i));
      for (int k = model.row_begin(i); k < model.row_end(i); ++k) {
        const int j = model.neighbors()[k];
        if (k > model.row_begin(i)) {
          EXPECT_LT(model.neighbors()[k - 1], j);
        }
        EXPECT_NE(j, i);
        EXPECT_NE(model.weights()[k], 0.0);
        EXPECT_EQ(model.weights()[k], c.qubo.quadratic(i, j));
      }
    }
  }
}

TEST(FrozenQuboTest, ZeroWeightQuboHasExpectedRowsAndCoefficientRange) {
  const FrozenQubo model(ZeroWeightQubo());
  // Surviving couplings: (0,3) and (2,3); x5 is isolated.
  EXPECT_EQ(model.row_end(0) - model.row_begin(0), 1);
  EXPECT_EQ(model.row_end(1) - model.row_begin(1), 0);
  EXPECT_EQ(model.row_end(3) - model.row_begin(3), 2);
  EXPECT_EQ(model.row_end(5) - model.row_begin(5), 0);
  EXPECT_EQ(model.max_abs_coefficient(), 2.0);
  EXPECT_EQ(model.min_abs_coefficient(), 0.25);
}

// 10k random flips per QUBO. After each one the maintained fields must match
// fresh ones, the proposed delta must match the energy difference, and the
// CSR energy must equal Qubo::Energy bit for bit.
TEST(FrozenQuboTest, RandomFlipWalkKeepsTheLocalFieldInvariant) {
  constexpr int kFlips = 10000;
  for (const KernelCase& c : KernelCases()) {
    SCOPED_TRACE(c.name);
    const FrozenQubo model(c.qubo);
    const int n = model.num_variables();
    std::vector<double> scale(n);
    for (int i = 0; i < n; ++i) scale[i] = RowScale(model, i);

    Rng rng(29);
    Assignment start(n);
    for (int i = 0; i < n; ++i) start[i] = rng.Bernoulli(0.5) ? 1 : 0;
    LocalFields walker(model, start);
    double energy = c.qubo.Energy(walker.x());
    for (int step = 0; step < kFlips; ++step) {
      const int i = static_cast<int>(rng.UniformInt(0, n - 1));
      const double delta = walker.Delta(i);
      walker.Flip(i);
      const double next_energy = c.qubo.Energy(walker.x());
      const double mag = std::max(std::abs(energy), std::abs(next_energy));
      ASSERT_NEAR(delta, next_energy - energy, 1e-9 * std::max(1.0, mag))
          << "step " << step << " flip " << i;
      ASSERT_EQ(model.Energy(walker.x()), next_energy) << "step " << step;
      for (int v = 0; v < n; ++v) {
        ASSERT_NEAR(walker.field(v), model.Field(walker.x(), v),
                    1e-9 * scale[v])
            << "step " << step << " field " << v;
      }
      energy = next_energy;
    }
  }
}

TEST(FrozenQuboTest, ExactSolverAgreesWithBruteForceUpToTwelveVariables) {
  Rng rng(41);
  for (int n = 1; n <= 12; ++n) {
    for (double density : {0.3, 1.0}) {
      const Qubo q = RandomQubo(n, density, &rng);
      double best = q.Energy(Assignment(n, 0));
      for (uint64_t mask = 1; mask < (uint64_t{1} << n); ++mask) {
        Assignment x(n);
        for (int i = 0; i < n; ++i) x[i] = (mask >> i) & 1;
        best = std::min(best, q.Energy(x));
      }
      const Sample exact = ExactSolver::Solve(q);
      EXPECT_NEAR(exact.energy, best, 1e-9) << "n=" << n;
      EXPECT_EQ(exact.energy, q.Energy(exact.assignment)) << "n=" << n;
    }
  }
}

// The canonical-energy contract: every classical kernel user reports
// Qubo::Energy of the returned assignment exactly, never a running sum, so
// equal assignments carry equal energies across backends.
TEST(FrozenQuboTest, KernelSamplersReportCanonicalEnergies) {
  const std::vector<std::string> backends{
      "simulated_annealing", "parallel_tempering", "tabu_search", "exact"};
  Rng rng(53);
  const Qubo q = RandomQubo(14, 0.6, &rng);
  SolverOptions options;
  options.num_reads = 6;
  for (size_t i = 0; i < backends.size(); ++i) {
    SCOPED_TRACE(backends[i]);
    options.seed = 53 + i;
    const Result<SampleSet> set = SolveWith(backends[i], q, options);
    ASSERT_TRUE(set.ok()) << set.status();
    for (const Sample& s : set->samples()) {
      EXPECT_EQ(s.energy, q.Energy(s.assignment));
    }
  }
}

// MetropolisAccept skips the exp above x = 45 and must still return exactly
// u < exp(-x): for the edge draws 0, 2^-64 (the smallest nonzero
// Rng::Uniform) and the largest one, for a u below every nonzero draw, and
// for ordinary draws.
TEST(FrozenQuboTest, MetropolisAcceptEqualsTheExpTest) {
  Rng rng(61);
  std::vector<double> us = {0.0, 0x1p-64, 1e-30, std::nextafter(1.0, 0.0)};
  for (int i = 0; i < 8; ++i) us.push_back(rng.Uniform());
  std::vector<double> xs;
  for (int step = 0; step <= 80000; ++step) xs.push_back(step * 0.01);
  // Either side of the skip threshold, of exp(-x) == 2^-64 and of exp's
  // underflow to 0.
  for (double edge : {45.0, 64 * std::log(2.0), 745.1332191019411}) {
    xs.push_back(std::nextafter(edge, 0.0));
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, 1000.0));
  }
  for (double u : us) {
    for (double x : xs) {
      ASSERT_EQ(MetropolisAccept(u, x), u < std::exp(-x))
          << "u " << u << " x " << x;
    }
  }
}

}  // namespace
}  // namespace anneal
}  // namespace qdm
