#include "qdm/algo/vqe.h"

#include <cmath>

#include "qdm/algo/noisy_sampling.h"
#include "qdm/algo/qaoa.h"
#include "qdm/common/check.h"

namespace qdm {
namespace algo {

namespace {

circuit::Circuit BuildAnsatz(int num_qubits, int layers) {
  circuit::Circuit c(num_qubits);
  int param = 0;
  for (int q = 0; q < num_qubits; ++q) c.SymbolicRY(q, param++);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q + 1 < num_qubits; ++q) c.CZ(q, q + 1);
    for (int q = 0; q < num_qubits; ++q) c.SymbolicRY(q, param++);
  }
  return c;
}

}  // namespace

Vqe::Vqe(const anneal::Qubo& qubo, int layers)
    : num_qubits_(qubo.num_variables()),
      layers_(layers),
      diagonal_(BuildDiagonal(qubo)),
      ansatz_(BuildAnsatz(qubo.num_variables(), layers)) {
  QDM_CHECK_GE(layers, 1);
}

sim::Statevector Vqe::StateForParameters(
    const std::vector<double>& thetas) const {
  QDM_CHECK_EQ(thetas.size(), static_cast<size_t>(num_parameters()));
  return sim::RunCircuit(ansatz_.BindParameters(thetas));
}

double Vqe::Expectation(const std::vector<double>& thetas) const {
  return StateForParameters(thetas).ExpectationDiagonal(diagonal_);
}

OptimizationResult Vqe::Optimize(Optimizer* optimizer, int restarts,
                                 Rng* rng) const {
  QDM_CHECK_GT(restarts, 0);
  OptimizationResult best;
  best.value = 1e300;
  Objective objective = [this](const std::vector<double>& p) {
    return Expectation(p);
  };
  for (int r = 0; r < restarts; ++r) {
    std::vector<double> initial(num_parameters());
    for (double& t : initial) t = rng->Uniform(-M_PI / 2, M_PI / 2);
    OptimizationResult run = optimizer->Minimize(objective, initial, rng);
    if (run.value < best.value) {
      run.evaluations += best.evaluations;
      best = run;
    } else {
      best.evaluations += run.evaluations;
    }
  }
  return best;
}

anneal::SampleSet VqeSampler::SampleQubo(const anneal::Qubo& qubo,
                                         int num_reads, Rng* rng) {
  QDM_CHECK_LE(qubo.num_variables(), options_.max_qubits)
      << "VQE statevector backend limited to " << options_.max_qubits
      << " qubits";
  Vqe vqe(qubo, options_.layers);
  NelderMead optimizer;
  OptimizationResult opt = vqe.Optimize(&optimizer, options_.restarts, rng);
  sim::Statevector sv = vqe.StateForParameters(opt.parameters);

  anneal::SampleSet set;
  const std::vector<double>& diag = vqe.diagonal();
  for (int read = 0; read < num_reads; ++read) {
    const uint64_t z = sv.SampleBasisState(rng);
    anneal::Assignment x(qubo.num_variables());
    for (int i = 0; i < qubo.num_variables(); ++i) x[i] = (z >> i) & 1;
    set.Add(anneal::Sample{std::move(x), diag[z], 0.0});
  }
  return set;
}

anneal::SampleSet VqeSampler::SampleQuboNoisy(
    const anneal::Qubo& qubo, int num_reads, const sim::NoiseModel& model,
    const anneal::SolverOptions& options) {
  QDM_CHECK_LE(qubo.num_variables(), options_.max_qubits)
      << "VQE statevector backend limited to " << options_.max_qubits
      << " qubits";
  Vqe vqe(qubo, options_.layers);
  NelderMead optimizer;
  Rng rng = anneal::SolverRng(options);
  OptimizationResult opt = vqe.Optimize(&optimizer, options_.restarts, &rng);
  return SampleCircuitNoisy(vqe.ansatz().BindParameters(opt.parameters),
                            vqe.diagonal(), model, num_reads, options);
}

}  // namespace algo
}  // namespace qdm
