#include "qdm/algo/noisy_sampling.h"

#include <algorithm>
#include <utility>

#include "qdm/common/check.h"
#include "qdm/sim/density_matrix.h"
#include "qdm/sim/statevector.h"

namespace qdm {
namespace algo {

namespace {

uint64_t ApplyReadoutFlips(uint64_t z, int num_qubits, double p, Rng* rng) {
  if (p <= 0.0) return z;
  for (int q = 0; q < num_qubits; ++q) {
    if (rng->Bernoulli(p)) z ^= uint64_t{1} << q;
  }
  return z;
}

void AddBasisSample(anneal::SampleSet* set, const std::vector<double>& diagonal,
                    int num_variables, uint64_t z) {
  anneal::Assignment x(num_variables);
  for (int i = 0; i < num_variables; ++i) x[i] = (z >> i) & 1;
  set->Add(anneal::Sample{std::move(x), diagonal[z], 0.0});
}

}  // namespace

sim::NoiseModel ToNoiseModel(const anneal::NoiseSpec& spec) {
  sim::NoiseModel model;
  switch (spec.channel) {
    case anneal::NoiseChannel::kNone:
      break;
    case anneal::NoiseChannel::kDepolarizing:
      model.depolarizing_1q = spec.p;
      model.depolarizing_2q = spec.p;
      break;
    case anneal::NoiseChannel::kPauli:
      model.pauli_px = spec.px;
      model.pauli_py = spec.py;
      model.pauli_pz = spec.pz;
      break;
    case anneal::NoiseChannel::kAmplitudeDamping:
      model.amplitude_damping = spec.p;
      break;
    case anneal::NoiseChannel::kPhaseDamping:
      model.phase_damping = spec.p;
      break;
    case anneal::NoiseChannel::kReadout:
      model.readout_flip = spec.p;
      break;
  }
  return model;
}

anneal::SampleSet SampleCircuitNoisy(const circuit::Circuit& c,
                                     const std::vector<double>& diagonal,
                                     const sim::NoiseModel& model,
                                     int num_reads,
                                     const anneal::SolverOptions& options) {
  QDM_CHECK_GT(num_reads, 0);
  const int n = c.num_qubits();
  QDM_CHECK_EQ(diagonal.size(), uint64_t{1} << n);
  const sim::Statevector ideal = sim::RunCircuit(c);
  anneal::SampleSet set;

  if (n <= kMaxDensityQubits) {
    // Exact channel semantics: evolve the density matrix once, then sample
    // its computational-basis diagonal per shot (readout errors are
    // classical bit flips on the outcome).
    const sim::DensityMatrix rho = sim::EvolveDensityMatrix(c, model);
    std::vector<double> probabilities(rho.dimension());
    for (size_t z = 0; z < probabilities.size(); ++z) {
      probabilities[z] = std::max(0.0, rho.matrix()(z, z).real());
    }
    for (int read = 0; read < num_reads; ++read) {
      Rng shot_rng = anneal::SolverRng(options, read);
      uint64_t z = static_cast<uint64_t>(shot_rng.Categorical(probabilities));
      z = ApplyReadoutFlips(z, n, model.readout_flip, &shot_rng);
      AddBasisSample(&set, diagonal, n, z);
    }
    set.set_noise_fidelity(rho.FidelityWithPure(ideal));
    return set;
  }

  // Trajectory path: one fresh noise realization per shot, fidelity averaged
  // over shots (|<ideal|.>|^2 is global-phase invariant, so BuildCircuit-
  // style gate decompositions compare cleanly against fast-path ideals).
  const sim::TrajectorySimulator simulator(model);
  double fidelity_total = 0.0;
  for (int read = 0; read < num_reads; ++read) {
    Rng shot_rng = anneal::SolverRng(options, read);
    const sim::Statevector trajectory = simulator.RunTrajectory(c, &shot_rng);
    uint64_t z = trajectory.SampleBasisState(&shot_rng);
    z = ApplyReadoutFlips(z, n, model.readout_flip, &shot_rng);
    fidelity_total += trajectory.FidelityWith(ideal);
    AddBasisSample(&set, diagonal, n, z);
  }
  set.set_noise_fidelity(fidelity_total / num_reads);
  return set;
}

uint64_t CorruptBasisState(uint64_t z, int num_qubits,
                           const sim::NoiseModel& model, Rng* rng,
                           double* survival) {
  double keep = 1.0;
  // Worst arity: the Durr-Hoyer loop's gates are two-qubit dominated.
  const double depol = std::max(model.depolarizing_1q, model.depolarizing_2q);
  const double flip = 2.0 * depol / 3.0 + model.pauli_px + model.pauli_py +
                      model.readout_flip;
  for (int q = 0; q < num_qubits; ++q) {
    const uint64_t bit = uint64_t{1} << q;
    if (flip > 0.0) {
      keep *= 1.0 - std::min(1.0, flip);
      if (rng->Bernoulli(std::min(1.0, flip))) z ^= bit;
    }
    if (model.amplitude_damping > 0.0 && (z & bit) != 0) {
      keep *= 1.0 - model.amplitude_damping;
      if (rng->Bernoulli(model.amplitude_damping)) z &= ~bit;
    }
  }
  if (survival != nullptr) *survival = keep;
  return z;
}

}  // namespace algo
}  // namespace qdm
