#ifndef QDM_ALGO_QAOA_H_
#define QDM_ALGO_QAOA_H_

#include <cstdint>
#include <optional>
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

/// Full 2^n energy diagonal of a QUBO (E(z) for every basis state z, with
/// variable i read from bit i). The cost Hamiltonian of QAOA/VQE/Grover-min.
std::vector<double> BuildDiagonal(const anneal::Qubo& qubo);

/// Quantum Approximate Optimization Algorithm over a QUBO cost Hamiltonian
/// (Farhi et al.; the gate-based path of the paper's Figure 2, used for MQO
/// in [21,22], join ordering in [23-26] and schema matching in [28]).
///
/// Parameters are (gamma_1..gamma_p, beta_1..beta_p). Layer l applies the
/// phase separator exp(-i gamma_l C) followed by the transverse mixer
/// RX(2 beta_l) on every qubit.
class Qaoa {
 public:
  Qaoa(const anneal::Qubo& qubo, int layers);

  int num_qubits() const { return num_qubits_; }
  int layers() const { return layers_; }
  int num_parameters() const { return 2 * layers_; }
  const std::vector<double>& diagonal() const { return diagonal_; }

  /// Fast path: evolves the state applying exp(-i gamma C) directly as
  /// diagonal phases (exact, no Trotter error).
  sim::Statevector StateForParameters(const std::vector<double>& params) const;

  /// <C> for the given parameters (exact expectation, the "infinite shots"
  /// limit).
  double Expectation(const std::vector<double>& params) const;

  /// Gate-level circuit: RZ / RZZ phase separator + RX mixer. Produces the
  /// same state as StateForParameters up to global phase (tested).
  circuit::Circuit BuildCircuit(const std::vector<double>& params) const;

  /// Classical outer loop: minimizes Expectation over the 2p angles with
  /// `restarts` random restarts.
  OptimizationResult Optimize(Optimizer* optimizer, int restarts,
                              Rng* rng) const;

 private:
  int num_qubits_;
  int layers_;
  anneal::IsingModel ising_;
  std::vector<double> diagonal_;
};

/// The objective Qaoa::Optimize minimizes: Qaoa::Expectation, bit for bit,
/// at a fraction of its cost. Each call starts from a cached copy of
/// |+>^n instead of applying n H gates, and applies each cost layer from a
/// cached table of polar(1, -gamma * diag) phasors (Statevector::
/// ApplyPhasors) instead of 2^n polar() calls. A layer keeps up to
/// kSlotsPerLayer tables, least recently used evicted first: coordinate
/// descent moves one angle per probe, so theta and both probes of a
/// coordinate stay cached. Tables are keyed by the bits of gamma.
///
/// Memory bound: 3 tables per layer of 16 bytes per amplitude, and only for
/// states below Statevector::kDefaultSerialCutoff amplitudes (at most
/// 3 MiB per layer). At or above it the evaluator holds nothing and calls
/// Qaoa::Expectation, so large states use the memory they always did.
/// Call-local: one evaluator per optimization, not shared across threads.
class QaoaEvaluator {
 public:
  static constexpr int kSlotsPerLayer = 3;

  explicit QaoaEvaluator(const Qaoa& qaoa);

  double operator()(const std::vector<double>& params);

  /// kSlotsPerLayer below the cutoff, 0 at or above it.
  int slots_per_layer() const { return slots_per_layer_; }
  /// Tables currently cached for `layer`.
  int cached_tables(int layer) const {
    return static_cast<int>(slots_[layer].size());
  }

 private:
  struct Slot {
    uint64_t gamma_bits = 0;
    uint64_t last_use = 0;
    std::vector<Complex> phasors;
  };

  /// The phasor table for layer `layer` at angle gamma, filled on a miss.
  const std::vector<Complex>& Phasors(int layer, double gamma);

  const Qaoa& qaoa_;
  int slots_per_layer_;
  // Engaged only below the cutoff: |+>^n as StateForParameters builds it,
  // and the state each call evolves (assigned from plus_, so its buffer is
  // reused).
  std::optional<sim::Statevector> plus_;
  std::optional<sim::Statevector> state_;
  std::vector<std::vector<Slot>> slots_;  // Per layer.
  uint64_t clock_ = 0;
};

/// QAOA as a QUBO sampler; the registry's "qaoa" backend (see
/// solver_registration.cc) serves it interchangeably with the annealers
/// (Figure 2's two arms).
class QaoaSampler {
 public:
  struct Options {
    int layers = 2;
    int restarts = 3;
    /// Maximum problem size in qubits (state-vector guard).
    int max_qubits = 20;
  };

  QaoaSampler() : options_() {}
  explicit QaoaSampler(Options options) : options_(options) {}

  anneal::SampleSet SampleQubo(const anneal::Qubo& qubo, int num_reads,
                               Rng* rng);

  /// Noisy sibling of SampleQubo (docs/noise.md): the variational loop
  /// optimizes noiselessly as usual, then the optimal gate-level circuit is
  /// sampled under `model` via SampleCircuitNoisy (per-shot seed derivation
  /// from `options`; the returned set carries noise_fidelity).
  anneal::SampleSet SampleQuboNoisy(const anneal::Qubo& qubo, int num_reads,
                                    const sim::NoiseModel& model,
                                    const anneal::SolverOptions& options);

 private:
  Options options_;
};

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_QAOA_H_
