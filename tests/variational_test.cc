#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "qdm/algo/grover_min_sampler.h"
#include "qdm/algo/optimizers.h"
#include "qdm/algo/qaoa.h"
#include "qdm/algo/vqe.h"
#include "qdm/anneal/exact_solver.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/rng.h"
#include "qdm/qopt/mqo.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace algo {
namespace {

anneal::Qubo SmallFrustratedQubo() {
  // 4-variable max-cut-like instance; optimum known via ExactSolver.
  anneal::Qubo q(4);
  q.AddLinear(0, 1.0);
  q.AddLinear(2, -0.5);
  q.AddQuadratic(0, 1, 2.0);
  q.AddQuadratic(1, 2, 2.0);
  q.AddQuadratic(2, 3, 2.0);
  q.AddQuadratic(3, 0, 2.0);
  q.AddQuadratic(0, 2, -1.0);
  return q;
}

TEST(BuildDiagonalTest, MatchesEnergyForEveryState) {
  anneal::Qubo q = SmallFrustratedQubo();
  std::vector<double> diag = BuildDiagonal(q);
  ASSERT_EQ(diag.size(), 16u);
  for (uint64_t z = 0; z < 16; ++z) {
    anneal::Assignment x(4);
    for (int i = 0; i < 4; ++i) x[i] = (z >> i) & 1;
    EXPECT_NEAR(diag[z], q.Energy(x), 1e-12) << "z=" << z;
  }
}

TEST(OptimizerTest, NelderMeadMinimizesQuadratic) {
  NelderMead nm;
  Rng rng(1);
  auto result = nm.Minimize(
      [](const std::vector<double>& x) {
        return (x[0] - 1) * (x[0] - 1) + 2 * (x[1] + 0.5) * (x[1] + 0.5);
      },
      {0.0, 0.0}, &rng);
  EXPECT_NEAR(result.parameters[0], 1.0, 1e-3);
  EXPECT_NEAR(result.parameters[1], -0.5, 1e-3);
  EXPECT_LT(result.value, 1e-5);
}

TEST(OptimizerTest, SpsaReducesNoisyObjective) {
  Spsa spsa;
  Rng rng(2);
  Rng noise(3);
  auto objective = [&](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1] + 0.01 * noise.Gaussian();
  };
  auto result = spsa.Minimize(objective, {2.0, -2.0}, &rng);
  EXPECT_LT(result.parameters[0] * result.parameters[0] +
                result.parameters[1] * result.parameters[1],
            1.0);
}

TEST(OptimizerTest, CoordinateDescentHandlesSeparableObjective) {
  CoordinateDescent cd;
  Rng rng(4);
  auto result = cd.Minimize(
      [](const std::vector<double>& x) {
        return std::abs(x[0] - 0.3) + std::abs(x[1] - 0.7);
      },
      {0.0, 0.0}, &rng);
  EXPECT_NEAR(result.parameters[0], 0.3, 0.05);
  EXPECT_NEAR(result.parameters[1], 0.7, 0.05);
}

TEST(QaoaTest, GateCircuitMatchesFastEvolver) {
  anneal::Qubo q = SmallFrustratedQubo();
  Qaoa qaoa(q, 2);
  const std::vector<double> params{0.4, 0.9, 0.3, 0.7};

  sim::Statevector fast = qaoa.StateForParameters(params);
  sim::Statevector gate = sim::RunCircuit(qaoa.BuildCircuit(params));
  // Equal up to global phase (the dropped constant term).
  EXPECT_NEAR(gate.FidelityWith(fast), 1.0, 1e-9);
}

TEST(QaoaTest, ExpectationAtZeroAnglesIsUniformAverage) {
  anneal::Qubo q = SmallFrustratedQubo();
  Qaoa qaoa(q, 1);
  std::vector<double> diag = BuildDiagonal(q);
  double mean = 0;
  for (double e : diag) mean += e;
  mean /= diag.size();
  EXPECT_NEAR(qaoa.Expectation({0.0, 0.0}), mean, 1e-9);
}

TEST(QaoaTest, OptimizationBeatsRandomGuessing) {
  anneal::Qubo q = SmallFrustratedQubo();
  Qaoa qaoa(q, 2);
  Rng rng(5);
  CoordinateDescent optimizer;
  auto result = qaoa.Optimize(&optimizer, 3, &rng);

  std::vector<double> diag = BuildDiagonal(q);
  double mean = 0;
  for (double e : diag) mean += e;
  mean /= diag.size();
  EXPECT_LT(result.value, mean - 0.5)
      << "optimized QAOA energy should be well below the uniform average";
}

TEST(QaoaSamplerTest, ReachesOptimumOnSmallInstances) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  QaoaSampler sampler(QaoaSampler::Options{.layers = 3, .restarts = 4});
  Rng rng(6);
  anneal::SampleSet set = sampler.SampleQubo(q, 100, &rng);
  EXPECT_NEAR(set.best().energy, optimum, 1e-9);
  // A meaningfully amplified fraction of reads should hit the optimum.
  EXPECT_GT(set.SuccessRate(optimum), 0.2);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

anneal::Qubo MqoQubo(uint64_t seed) {
  Rng rng(seed);
  return qopt::MqoToQubo(qopt::GenerateMqoProblem(4, 2, 0.4, &rng));
}

// Optimize's cached evaluator must leave the optimizer's trajectory exactly
// where a CoordinateDescent run over the public, uncached Expectation puts
// it: same parameters, value and evaluation count, bit for bit.
TEST(QaoaEvaluatorTest, OptimizeMatchesCoordinateDescentOverExpectation) {
  for (int layers = 1; layers <= 3; ++layers) {
    for (uint64_t seed : {3u, 17u, 2024u}) {
      const Qaoa qaoa(MqoQubo(seed), layers);
      Rng reference_rng(seed);
      std::vector<double> initial(qaoa.num_parameters());
      for (int i = 0; i < layers; ++i) {  // Optimize's draw order.
        initial[i] = reference_rng.Uniform(0.0, M_PI / 4);
        initial[layers + i] = reference_rng.Uniform(0.0, M_PI / 4);
      }
      CoordinateDescent reference_optimizer;
      const OptimizationResult reference = reference_optimizer.Minimize(
          [&](const std::vector<double>& p) { return qaoa.Expectation(p); },
          initial, &reference_rng);

      Rng rng(seed);
      CoordinateDescent optimizer;
      const OptimizationResult cached = qaoa.Optimize(&optimizer, 1, &rng);
      const std::string context =
          "p=" + std::to_string(layers) + " seed=" + std::to_string(seed);
      EXPECT_EQ(cached.evaluations, reference.evaluations) << context;
      EXPECT_TRUE(SameBits(cached.value, reference.value)) << context;
      ASSERT_EQ(cached.parameters.size(), reference.parameters.size());
      for (size_t i = 0; i < cached.parameters.size(); ++i) {
        EXPECT_TRUE(SameBits(cached.parameters[i], reference.parameters[i]))
            << context << " parameter " << i;
      }
    }
  }
}

// Revisited, new and evicted angles all give Expectation's bits, and no
// layer ever holds more than kSlotsPerLayer tables.
TEST(QaoaEvaluatorTest, MatchesExpectationAndKeepsAtMostThreeTablesPerLayer) {
  const Qaoa qaoa(MqoQubo(8), 3);
  QaoaEvaluator evaluator(qaoa);
  ASSERT_EQ(evaluator.slots_per_layer(), QaoaEvaluator::kSlotsPerLayer);
  ASSERT_EQ(QaoaEvaluator::kSlotsPerLayer, 3);
  // Five gammas per layer cycle through three slots: hits and evictions.
  const double gammas[] = {0.1, -0.35, 0.7, 0.0, -0.0};
  Rng rng(77);
  for (int call = 0; call < 60; ++call) {
    std::vector<double> params(qaoa.num_parameters());
    for (int l = 0; l < qaoa.layers(); ++l) {
      params[l] = gammas[rng.UniformInt(0, 4)];
      params[qaoa.layers() + l] = rng.Uniform(-1.0, 1.0);
    }
    EXPECT_TRUE(SameBits(evaluator(params), qaoa.Expectation(params)))
        << "call " << call;
    for (int l = 0; l < qaoa.layers(); ++l) {
      EXPECT_LE(evaluator.cached_tables(l), 3) << "layer " << l;
      EXPECT_GE(evaluator.cached_tables(l), 1) << "layer " << l;
    }
  }
}

// At 2^n >= Statevector::kDefaultSerialCutoff the evaluator caches nothing
// and defers to Expectation; one qubit fewer still caches.
TEST(QaoaEvaluatorTest, HoldsNoTablesAtTheSerialCutoff) {
  int cutoff_qubits = 0;
  while ((uint64_t{1} << cutoff_qubits) <
         sim::Statevector::kDefaultSerialCutoff) {
    ++cutoff_qubits;
  }
  for (int n : {cutoff_qubits - 1, cutoff_qubits}) {
    anneal::Qubo chain(n);
    for (int i = 0; i < n; ++i) chain.AddLinear(i, 0.1 * (i % 5) - 0.2);
    for (int i = 0; i + 1 < n; ++i) chain.AddQuadratic(i, i + 1, 0.3);
    const Qaoa qaoa(chain, 1);
    QaoaEvaluator evaluator(qaoa);
    const std::vector<double> params{0.4, 0.2};
    EXPECT_TRUE(SameBits(evaluator(params), qaoa.Expectation(params)));
    const bool below =
        (uint64_t{1} << n) < sim::Statevector::kDefaultSerialCutoff;
    EXPECT_EQ(evaluator.slots_per_layer(), below ? 3 : 0) << "n=" << n;
    EXPECT_EQ(evaluator.cached_tables(0), below ? 1 : 0) << "n=" << n;
  }
}

// The phasor multiply is ApplyDiagonalPhase(diag, -gamma) bit for bit,
// serial and chunked (odd chunk lengths), scalar and SIMD.
TEST(QaoaEvaluatorTest, PhasorMultiplyMatchesDiagonalPhase) {
  for (int n : {1, 3, 8}) {
    anneal::Qubo q(n);
    for (int i = 0; i < n; ++i) q.AddLinear(i, 0.37 * i - 0.9);
    for (int i = 0; i + 1 < n; ++i) q.AddQuadratic(i, i + 1, 1.3);
    const std::vector<double> diag = BuildDiagonal(q);
    for (double gamma : {0.61, -1.7}) {
      std::vector<Complex> phasors(diag.size());
      for (size_t z = 0; z < diag.size(); ++z) {
        phasors[z] = std::polar(1.0, -gamma * diag[z]);
      }
      sim::Statevector plus(n);
      const linalg::Matrix h =
          circuit::SingleQubitMatrix(circuit::GateKind::kH, {});
      for (int k = 0; k < n; ++k) plus.Apply1Q(h, k);
      sim::Statevector reference = plus;
      reference.set_execution_config({1, 0, sim::SimdMode::kScalar});
      reference.ApplyDiagonalPhase(diag, -gamma);
      for (sim::SimdMode mode :
           {sim::SimdMode::kScalar, sim::SimdMode::kSimd}) {
        for (int threads : {1, 3}) {
          sim::Statevector sv = plus;
          sv.set_execution_config({threads, 1, mode});
          sv.ApplyPhasors(phasors);
          for (size_t z = 0; z < diag.size(); ++z) {
            EXPECT_TRUE(SameBits(sv.amplitude(z).real(),
                                 reference.amplitude(z).real()) &&
                        SameBits(sv.amplitude(z).imag(),
                                 reference.amplitude(z).imag()))
                << "n=" << n << " gamma=" << gamma << " threads=" << threads
                << " z=" << z;
          }
        }
      }
    }
  }
}

TEST(VqeTest, AnsatzHasExpectedParameterCount) {
  anneal::Qubo q = SmallFrustratedQubo();
  Vqe vqe(q, 3);
  EXPECT_EQ(vqe.num_parameters(), 4 * 4);
  EXPECT_EQ(vqe.ansatz().num_parameters(), 16);
}

TEST(VqeTest, ZeroAnglesGiveZeroState) {
  anneal::Qubo q = SmallFrustratedQubo();
  Vqe vqe(q, 1);
  std::vector<double> zeros(vqe.num_parameters(), 0.0);
  sim::Statevector sv = vqe.StateForParameters(zeros);
  EXPECT_NEAR(std::norm(sv.amplitude(0)), 1.0, 1e-12);
  EXPECT_NEAR(vqe.Expectation(zeros), q.Energy({0, 0, 0, 0}), 1e-12);
}

TEST(VqeTest, OptimizationFindsGroundState) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  Vqe vqe(q, 2);
  NelderMead optimizer;
  Rng rng(7);
  auto result = vqe.Optimize(&optimizer, 4, &rng);
  // The RY/CZ ansatz can express the (real-amplitude) ground state.
  EXPECT_NEAR(result.value, optimum, 0.15);
}

TEST(VqeSamplerTest, BestSampleIsOptimal) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  VqeSampler sampler(VqeSampler::Options{.layers = 2, .restarts = 4});
  Rng rng(8);
  anneal::SampleSet set = sampler.SampleQubo(q, 60, &rng);
  EXPECT_NEAR(set.best().energy, optimum, 1e-9);
}

TEST(GroverMinSamplerTest, FindsQuboOptimum) {
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  GroverMinSampler sampler;
  Rng rng(9);
  anneal::SampleSet set = sampler.SampleQubo(q, 5, &rng);
  EXPECT_NEAR(set.best().energy, optimum, 1e-9);
  EXPECT_GT(sampler.last_oracle_queries(), 0);
}

TEST(SamplerPolymorphismTest, AllBackendsShareTheInterface) {
  // The Figure-2 promise: one QUBO, interchangeable quantum backends.
  anneal::Qubo q = SmallFrustratedQubo();
  const double optimum = anneal::ExactSolver::Solve(q).energy;
  // {backend, layers}; grover_min reads no layers or restarts.
  const std::vector<std::pair<std::string, int>> backends{
      {"qaoa", 3}, {"vqe", 2}, {"grover_min", 0}};
  for (size_t i = 0; i < backends.size(); ++i) {
    const auto& [name, layers] = backends[i];
    anneal::SolverOptions options;
    options.num_reads = 40;
    options.seed = 10 + i;
    options.layers = layers;
    options.restarts = 3;
    Result<anneal::SampleSet> set = anneal::SolveWith(name, q, options);
    ASSERT_TRUE(set.ok()) << name << ": " << set.status();
    EXPECT_NEAR(set->best().energy, optimum, 1e-9) << name;
  }
}

}  // namespace
}  // namespace algo
}  // namespace qdm
