#include "qdm/algo/qaoa.h"

#include <cmath>
#include <complex>
#include <cstring>

#include "qdm/algo/noisy_sampling.h"
#include "qdm/common/check.h"

namespace qdm {
namespace algo {

std::vector<double> BuildDiagonal(const anneal::Qubo& qubo) {
  const int n = qubo.num_variables();
  QDM_CHECK_LE(n, 26) << "diagonal would exceed memory budget";
  const uint64_t dim = uint64_t{1} << n;
  std::vector<double> diag(dim, qubo.offset());
  for (int i = 0; i < n; ++i) {
    const double a = qubo.linear(i);
    if (a == 0.0) continue;
    const uint64_t bit = uint64_t{1} << i;
    for (uint64_t z = 0; z < dim; ++z) {
      if (z & bit) diag[z] += a;
    }
  }
  for (const auto& [key, w] : qubo.quadratic_terms()) {
    if (w == 0.0) continue;
    const uint64_t mask =
        (uint64_t{1} << key.first) | (uint64_t{1} << key.second);
    for (uint64_t z = 0; z < dim; ++z) {
      if ((z & mask) == mask) diag[z] += w;
    }
  }
  return diag;
}

Qaoa::Qaoa(const anneal::Qubo& qubo, int layers)
    : num_qubits_(qubo.num_variables()),
      layers_(layers),
      ising_(anneal::QuboToIsing(qubo)),
      diagonal_(BuildDiagonal(qubo)) {
  QDM_CHECK_GT(layers, 0);
}

sim::Statevector Qaoa::StateForParameters(
    const std::vector<double>& params) const {
  QDM_CHECK_EQ(params.size(), static_cast<size_t>(num_parameters()));
  sim::Statevector sv(num_qubits_);
  const linalg::Matrix h =
      circuit::SingleQubitMatrix(circuit::GateKind::kH, {});
  for (int q = 0; q < num_qubits_; ++q) sv.Apply1Q(h, q);

  for (int l = 0; l < layers_; ++l) {
    const double gamma = params[l];
    const double beta = params[layers_ + l];
    sv.ApplyDiagonalPhase(diagonal_, -gamma);
    const linalg::Matrix rx =
        circuit::SingleQubitMatrix(circuit::GateKind::kRX, {2 * beta});
    for (int q = 0; q < num_qubits_; ++q) sv.Apply1Q(rx, q);
  }
  return sv;
}

double Qaoa::Expectation(const std::vector<double>& params) const {
  return StateForParameters(params).ExpectationDiagonal(diagonal_);
}

circuit::Circuit Qaoa::BuildCircuit(const std::vector<double>& params) const {
  QDM_CHECK_EQ(params.size(), static_cast<size_t>(num_parameters()));
  circuit::Circuit c(num_qubits_);
  for (int q = 0; q < num_qubits_; ++q) c.H(q);

  for (int l = 0; l < layers_; ++l) {
    const double gamma = params[l];
    const double beta = params[layers_ + l];
    // exp(-i gamma C) in Ising form:
    //   C = offset + sum h_i s_i + sum J_ij s_i s_j
    // with s = 2x - 1. RZ(theta) applies phase e^{i theta/2 s}; we need
    // e^{-i gamma h s}, hence theta = -2 gamma h. RZZ(theta) applies
    // e^{-i theta/2 s_i s_j}; we need e^{-i gamma J s_i s_j}:
    // theta = 2 gamma J.
    // The constant offset contributes only a global phase and is dropped.
    for (int i = 0; i < num_qubits_; ++i) {
      if (ising_.h[i] != 0.0) c.RZ(i, -2 * gamma * ising_.h[i]);
    }
    for (const auto& [key, j] : ising_.j) {
      if (j != 0.0) c.RZZ(key.first, key.second, 2 * gamma * j);
    }
    for (int q = 0; q < num_qubits_; ++q) c.RX(q, 2 * beta);
  }
  return c;
}

QaoaEvaluator::QaoaEvaluator(const Qaoa& qaoa)
    : qaoa_(qaoa), slots_per_layer_(0), slots_(qaoa.layers()) {
  const uint64_t dim = uint64_t{1} << qaoa.num_qubits();
  if (dim >= sim::Statevector::kDefaultSerialCutoff) return;
  slots_per_layer_ = kSlotsPerLayer;
  plus_.emplace(qaoa.num_qubits());
  const linalg::Matrix h =
      circuit::SingleQubitMatrix(circuit::GateKind::kH, {});
  for (int q = 0; q < qaoa.num_qubits(); ++q) plus_->Apply1Q(h, q);
  state_ = plus_;
}

const std::vector<Complex>& QaoaEvaluator::Phasors(int layer, double gamma) {
  uint64_t bits;
  std::memcpy(&bits, &gamma, sizeof(bits));
  std::vector<Slot>& slots = slots_[layer];
  Slot* slot = nullptr;
  for (Slot& s : slots) {
    if (s.gamma_bits == bits) {
      s.last_use = ++clock_;
      return s.phasors;
    }
    if (slot == nullptr || s.last_use < slot->last_use) slot = &s;
  }
  if (slots.size() < static_cast<size_t>(slots_per_layer_)) {
    slots.emplace_back();
    slot = &slots.back();
  }
  slot->gamma_bits = bits;
  slot->last_use = ++clock_;
  // The exact factor ApplyDiagonalPhase(diag, -gamma) evaluates per element.
  const std::vector<double>& diag = qaoa_.diagonal();
  const double scale = -gamma;
  slot->phasors.resize(diag.size());
  for (size_t z = 0; z < diag.size(); ++z) {
    slot->phasors[z] = std::polar(1.0, scale * diag[z]);
  }
  return slot->phasors;
}

double QaoaEvaluator::operator()(const std::vector<double>& params) {
  if (slots_per_layer_ == 0) return qaoa_.Expectation(params);
  QDM_CHECK_EQ(params.size(), static_cast<size_t>(qaoa_.num_parameters()));
  const int layers = qaoa_.layers();
  sim::Statevector& sv = *state_;
  sv = *plus_;
  for (int l = 0; l < layers; ++l) {
    sv.ApplyPhasors(Phasors(l, params[l]));
    const linalg::Matrix rx = circuit::SingleQubitMatrix(
        circuit::GateKind::kRX, {2 * params[layers + l]});
    for (int q = 0; q < qaoa_.num_qubits(); ++q) sv.Apply1Q(rx, q);
  }
  return sv.ExpectationDiagonal(qaoa_.diagonal());
}

OptimizationResult Qaoa::Optimize(Optimizer* optimizer, int restarts,
                                  Rng* rng) const {
  QDM_CHECK_GT(restarts, 0);
  OptimizationResult best;
  best.value = 1e300;
  QaoaEvaluator evaluator(*this);
  Objective objective = [&evaluator](const std::vector<double>& p) {
    return evaluator(p);
  };
  for (int r = 0; r < restarts; ++r) {
    std::vector<double> initial(num_parameters());
    for (int i = 0; i < layers_; ++i) {
      initial[i] = rng->Uniform(0.0, M_PI / 4);             // gammas
      initial[layers_ + i] = rng->Uniform(0.0, M_PI / 4);   // betas
    }
    OptimizationResult run = optimizer->Minimize(objective, initial, rng);
    run.evaluations += best.evaluations;
    if (run.value < best.value) {
      best = run;
    } else {
      best.evaluations = run.evaluations;
    }
  }
  return best;
}

anneal::SampleSet QaoaSampler::SampleQubo(const anneal::Qubo& qubo,
                                          int num_reads, Rng* rng) {
  QDM_CHECK_LE(qubo.num_variables(), options_.max_qubits)
      << "QAOA statevector backend limited to " << options_.max_qubits
      << " qubits";
  Qaoa qaoa(qubo, options_.layers);
  CoordinateDescent optimizer;
  OptimizationResult opt = qaoa.Optimize(&optimizer, options_.restarts, rng);
  sim::Statevector sv = qaoa.StateForParameters(opt.parameters);

  anneal::SampleSet set;
  const std::vector<double>& diag = qaoa.diagonal();
  for (int read = 0; read < num_reads; ++read) {
    const uint64_t z = sv.SampleBasisState(rng);
    anneal::Assignment x(qubo.num_variables());
    for (int i = 0; i < qubo.num_variables(); ++i) x[i] = (z >> i) & 1;
    set.Add(anneal::Sample{std::move(x), diag[z], 0.0});
  }
  return set;
}

anneal::SampleSet QaoaSampler::SampleQuboNoisy(
    const anneal::Qubo& qubo, int num_reads, const sim::NoiseModel& model,
    const anneal::SolverOptions& options) {
  QDM_CHECK_LE(qubo.num_variables(), options_.max_qubits)
      << "QAOA statevector backend limited to " << options_.max_qubits
      << " qubits";
  Qaoa qaoa(qubo, options_.layers);
  CoordinateDescent optimizer;
  Rng rng = anneal::SolverRng(options);
  OptimizationResult opt = qaoa.Optimize(&optimizer, options_.restarts, &rng);
  // The gate-level circuit produces the same state as the fast diagonal
  // path up to global phase, which the fidelity metric is invariant to.
  return SampleCircuitNoisy(qaoa.BuildCircuit(opt.parameters),
                            qaoa.diagonal(), model, num_reads, options);
}

}  // namespace algo
}  // namespace qdm
