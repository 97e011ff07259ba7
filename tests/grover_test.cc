#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qdm/algo/grover.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace algo {
namespace {

TEST(GroverIterationsTest, MatchesClosedForm) {
  // floor(pi/4 sqrt(N)) for M=1.
  EXPECT_EQ(OptimalGroverIterations(4, 1), 1);
  EXPECT_EQ(OptimalGroverIterations(16, 1), 3);
  EXPECT_EQ(OptimalGroverIterations(1024, 1), 25);
  // More marked states need fewer iterations.
  EXPECT_EQ(OptimalGroverIterations(1024, 4), 12);
}

TEST(GroverSearchTest, FindsSingleMarkedState) {
  Rng rng(42);
  for (uint64_t target : {0ull, 5ull, 63ull}) {
    CountingOracle oracle([=](uint64_t x) { return x == target; });
    GroverResult r = GroverSearch(6, &oracle, 1, &rng);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.measured, target);
    EXPECT_GT(r.success_probability, 0.99) << "N=64 single target";
    EXPECT_EQ(r.oracle_queries, r.iterations);
  }
}

TEST(GroverSearchTest, QuerySavingsGrowWithN) {
  Rng rng(1);
  // Quantum oracle applications ~ pi/4 sqrt(N) vs classical expected N/2.
  for (int n : {6, 8, 10}) {
    const uint64_t size = uint64_t{1} << n;
    CountingOracle oracle([=](uint64_t x) { return x == size / 3; });
    GroverResult r = GroverSearch(n, &oracle, 1, &rng);
    EXPECT_TRUE(r.found);
    const double bound = M_PI / 4 * std::sqrt(static_cast<double>(size)) + 1;
    EXPECT_LE(r.oracle_queries, static_cast<int64_t>(bound));
  }
}

TEST(GroverSearchTest, MultipleMarkedStates) {
  Rng rng(7);
  // M = 16 of 256.
  CountingOracle oracle([](uint64_t x) { return x % 16 == 3; });
  GroverResult r = GroverSearch(8, &oracle, 16, &rng);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.measured % 16, 3u);
  EXPECT_GT(r.success_probability, 0.9);
}

TEST(GroverSearchTest, SuccessProbabilityMatchesTheory) {
  // After k iterations, P(success) = sin^2((2k+1) theta) with
  // theta = asin(sqrt(M/N)).
  Rng rng(3);
  const int n = 7;
  const uint64_t size = uint64_t{1} << n;
  CountingOracle oracle([](uint64_t x) { return x == 99; });
  GroverResult r = GroverSearch(n, &oracle, 1, &rng);
  const double theta = std::asin(std::sqrt(1.0 / size));
  const double expected = std::pow(std::sin((2 * r.iterations + 1) * theta), 2);
  EXPECT_NEAR(r.success_probability, expected, 1e-9);
}

TEST(ClassicalSearchTest, ExpectedLinearQueries) {
  Rng rng(11);
  const uint64_t size = 1 << 10;
  double total = 0;
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    const uint64_t target = static_cast<uint64_t>(rng.UniformInt(0, size - 1));
    CountingOracle oracle([=](uint64_t x) { return x == target; });
    ClassicalSearchResult r = ClassicalLinearSearch(size, &oracle, &rng);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.found_index, target);
    total += static_cast<double>(r.queries);
  }
  // Expected (N+1)/2 ~ 512.5; allow generous sampling slack.
  EXPECT_NEAR(total / kTrials, 512.5, 60);
}

TEST(BbhtTest, FindsSolutionWithUnknownCount) {
  Rng rng(19);
  int found = 0;
  for (int t = 0; t < 20; ++t) {
    CountingOracle oracle([](uint64_t x) { return x == 37 || x == 41; });
    GroverResult r = BbhtSearch(8, &oracle, &rng);
    if (r.found) {
      ++found;
      EXPECT_TRUE(r.measured == 37 || r.measured == 41);
    }
  }
  EXPECT_GE(found, 19) << "BBHT should almost always succeed";
}

TEST(BbhtTest, ReportsFailureWhenNothingMarked) {
  Rng rng(23);
  CountingOracle oracle([](uint64_t) { return false; });
  GroverResult r = BbhtSearch(6, &oracle, &rng);
  EXPECT_FALSE(r.found);
  // Bounded by the cutoff.
  EXPECT_LE(r.oracle_queries, 16 * 8 + 64 + 8);
}

TEST(BbhtTest, StaysWithinSqrtBudgetOnAverage) {
  Rng rng(29);
  const int n = 10;
  double total = 0;
  const int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    CountingOracle oracle([](uint64_t x) { return x == 511; });
    GroverResult r = BbhtSearch(n, &oracle, &rng);
    EXPECT_TRUE(r.found);
    total += static_cast<double>(r.oracle_queries);
  }
  // BBHT expected queries < 9/2 sqrt(N) ~ 144 for N=1024.
  EXPECT_LT(total / kTrials, 150);
}

TEST(GroverCircuitTest, GateLevelMatchesFastPath) {
  Rng rng(31);
  for (int n : {2, 3, 4, 5}) {
    const uint64_t size = uint64_t{1} << n;
    const uint64_t target = size - 2;
    const int iterations = OptimalGroverIterations(size, 1);

    circuit::Circuit c = GroverCircuit(n, target, iterations);
    sim::Statevector gate_state = sim::RunCircuit(c);

    CountingOracle oracle([=](uint64_t x) { return x == target; });
    GroverResult fast = GroverSearch(n, &oracle, 1, &rng);

    // Marginal probability of the data register matches the fast path.
    double p_target = 0.0;
    for (uint64_t z = 0; z < gate_state.dimension(); ++z) {
      if ((z & (size - 1)) == target) {
        p_target += std::norm(gate_state.amplitude(z));
      }
    }
    EXPECT_NEAR(p_target, fast.success_probability, 1e-9) << "n=" << n;
  }
}

TEST(GroverCircuitTest, AncillasReturnToZero) {
  const int n = 5;
  const uint64_t size = 1 << n;
  circuit::Circuit c = GroverCircuit(n, 17, OptimalGroverIterations(size, 1));
  sim::Statevector sv = sim::RunCircuit(c);
  // All amplitude mass must sit in the ancilla=0 subspace.
  double mass_with_clean_ancillas = 0.0;
  for (uint64_t z = 0; z < size; ++z) {
    mass_with_clean_ancillas += std::norm(sv.amplitude(z));
  }
  EXPECT_NEAR(mass_with_clean_ancillas, 1.0, 1e-9);
}

TEST(DurrHoyerTest, FindsGlobalMinimum) {
  Rng rng(37);
  const int n = 8;
  const uint64_t size = 1 << n;
  int exact_hits = 0;
  for (int trial = 0; trial < 10; ++trial) {
    // Random landscape with a unique planted minimum.
    std::vector<double> f(size);
    for (auto& v : f) v = rng.Uniform(0, 100);
    const uint64_t planted = static_cast<uint64_t>(rng.UniformInt(0, size - 1));
    f[planted] = -1.0;

    MinimumResult r =
        DurrHoyerMinimum(n, [&](uint64_t z) { return f[z]; }, &rng);
    if (r.argmin == planted) ++exact_hits;
  }
  EXPECT_GE(exact_hits, 9) << "Durr-Hoyer should locate the planted minimum";
}

TEST(DurrHoyerTest, QueryCountScalesAsSqrtN) {
  Rng rng(41);
  for (int n : {6, 8, 10}) {
    const uint64_t size = uint64_t{1} << n;
    std::vector<double> f(size);
    for (auto& v : f) v = rng.Uniform(0, 1);
    MinimumResult r =
        DurrHoyerMinimum(n, [&](uint64_t z) { return f[z]; }, &rng);
    const auto bound =
        static_cast<int64_t>(23.0 * std::sqrt(static_cast<double>(size)));
    EXPECT_LE(r.oracle_queries, bound + 64)
        << "n=" << n;
  }
}

TEST(CountingOracleTest, PeekDoesNotCharge) {
  CountingOracle oracle([](uint64_t x) { return x == 1; });
  EXPECT_TRUE(oracle.Peek(1));
  EXPECT_FALSE(oracle.Peek(0));
  EXPECT_EQ(oracle.query_count(), 0);
  oracle.Query(0);
  EXPECT_EQ(oracle.query_count(), 1);
  oracle.ResetCount();
  EXPECT_EQ(oracle.query_count(), 0);
}

// The oracle's mark vector changes how often the predicate runs, not what
// the search does: argmin, minimum and query count per seed are pinned to
// the values of the per-flip predicate evaluation it replaced.
TEST(DurrHoyerTest, ResultsAndQueryCountsArePinned) {
  struct Pinned {
    int n;
    uint64_t seed;
    uint64_t argmin;
    int64_t oracle_queries;
  };
  const Pinned kPinned[] = {
      {4, 11, 4, 131},    {6, 12, 26, 232},   {8, 13, 136, 337},
      {8, 14, 92, 382},   {10, 15, 453, 694}, {10, 16, 336, 610},
  };
  for (const Pinned& pinned : kPinned) {
    Rng rng(pinned.seed);
    std::vector<double> f(uint64_t{1} << pinned.n);
    for (double& v : f) v = rng.Uniform(-50, 50);
    const MinimumResult r =
        DurrHoyerMinimum(pinned.n, [&](uint64_t z) { return f[z]; }, &rng);
    EXPECT_EQ(r.argmin, pinned.argmin) << "n=" << pinned.n;
    EXPECT_EQ(r.minimum, f[r.argmin]) << "n=" << pinned.n;
    EXPECT_EQ(r.oracle_queries, pinned.oracle_queries) << "n=" << pinned.n;
  }
}

TEST(CountingOracleTest, PhaseFlipEvaluatesThePredicateOncePerState) {
  int calls = 0;
  CountingOracle oracle([&](uint64_t x) {
    ++calls;
    return x % 3 == 0;
  });
  sim::Statevector sv(4);
  const std::vector<Complex> initial(16, Complex(0.25, -0.25));
  sv.mutable_amplitudes() = initial;
  for (int flip = 0; flip < 5; ++flip) oracle.ApplyPhaseFlip(&sv);
  EXPECT_EQ(calls, 16);
  EXPECT_EQ(oracle.query_count(), 5);
  // An odd number of flips negates exactly the marked states.
  for (uint64_t z = 0; z < 16; ++z) {
    EXPECT_EQ(sv.amplitude(z), z % 3 == 0 ? -initial[z] : initial[z]) << z;
  }
  // Peek and Query still call the predicate itself.
  EXPECT_TRUE(oracle.Query(3));
  EXPECT_EQ(calls, 17);
  EXPECT_EQ(oracle.query_count(), 6);
}

}  // namespace
}  // namespace algo
}  // namespace qdm
