#ifndef QDM_ALGO_VQE_H_
#define QDM_ALGO_VQE_H_

#include <vector>

#include "qdm/algo/optimizers.h"
#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/anneal/solver.h"
#include "qdm/circuit/circuit.h"
#include "qdm/sim/noise.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace algo {

/// Variational Quantum Eigensolver specialized to diagonal (classical-
/// optimization) Hamiltonians, as used for bushy join ordering in Nayak et
/// al. [26]. Ansatz: `layers` of per-qubit RY rotations with a linear CZ
/// entangler between them (hardware-efficient ansatz).
class Vqe {
 public:
  Vqe(const anneal::Qubo& qubo, int layers);

  int num_qubits() const { return num_qubits_; }
  int num_parameters() const { return (layers_ + 1) * num_qubits_; }
  const std::vector<double>& diagonal() const { return diagonal_; }

  /// The symbolic ansatz circuit (parameters indexed 0..num_parameters-1).
  const circuit::Circuit& ansatz() const { return ansatz_; }

  /// Binds the angles, runs the ansatz, returns the final state.
  sim::Statevector StateForParameters(const std::vector<double>& thetas) const;

  /// <C> for the bound ansatz.
  double Expectation(const std::vector<double>& thetas) const;

  /// Minimizes <C> over the ansatz angles.
  OptimizationResult Optimize(Optimizer* optimizer, int restarts,
                              Rng* rng) const;

 private:
  int num_qubits_;
  int layers_;
  std::vector<double> diagonal_;
  circuit::Circuit ansatz_;
};

/// VQE as a QUBO sampler, served as the registry's "vqe" backend (Figure 2's
/// second gate-based arm).
class VqeSampler {
 public:
  struct Options {
    int layers = 2;
    int restarts = 3;
    int max_qubits = 18;
  };

  VqeSampler() : options_() {}
  explicit VqeSampler(Options options) : options_(options) {}

  anneal::SampleSet SampleQubo(const anneal::Qubo& qubo, int num_reads,
                               Rng* rng);

  /// Noisy sibling of SampleQubo (docs/noise.md): optimizes noiselessly,
  /// then samples the bound ansatz circuit under `model` via
  /// SampleCircuitNoisy (the returned set carries noise_fidelity).
  anneal::SampleSet SampleQuboNoisy(const anneal::Qubo& qubo, int num_reads,
                                    const sim::NoiseModel& model,
                                    const anneal::SolverOptions& options);

 private:
  Options options_;
};

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_VQE_H_
