#include "qdm/algo/grover.h"

#include <cmath>

#include "qdm/circuit/multi_controlled.h"
#include "qdm/common/check.h"

namespace qdm {
namespace algo {

void CountingOracle::ApplyPhaseFlip(sim::Statevector* sv) {
  ++queries_;
  auto& amps = sv->mutable_amplitudes();
  if (marks_.size() != amps.size()) {
    marks_.resize(amps.size());
    for (uint64_t z = 0; z < amps.size(); ++z) marks_[z] = predicate_(z);
  }
  for (uint64_t z = 0; z < amps.size(); ++z) {
    if (marks_[z] != 0) amps[z] = -amps[z];
  }
}

int OptimalGroverIterations(uint64_t num_states, uint64_t num_marked) {
  QDM_CHECK_GT(num_marked, 0u);
  QDM_CHECK_GE(num_states, num_marked);
  const double theta = std::asin(
      std::sqrt(static_cast<double>(num_marked) / num_states));
  return static_cast<int>(std::floor(M_PI / (4 * theta)));
}

void ApplyDiffusion(sim::Statevector* sv) {
  auto& amps = sv->mutable_amplitudes();
  Complex mean(0, 0);
  for (const Complex& a : amps) mean += a;
  mean /= static_cast<double>(amps.size());
  for (Complex& a : amps) a = 2.0 * mean - a;
}

GroverResult GroverSearch(int num_qubits, CountingOracle* oracle,
                          uint64_t num_marked, Rng* rng) {
  QDM_CHECK_GT(num_qubits, 0);
  const uint64_t n = uint64_t{1} << num_qubits;
  GroverResult result;
  result.iterations = OptimalGroverIterations(n, num_marked);

  sim::Statevector sv(num_qubits);
  const linalg::Matrix h =
      circuit::SingleQubitMatrix(circuit::GateKind::kH, {});
  for (int q = 0; q < num_qubits; ++q) sv.Apply1Q(h, q);

  for (int it = 0; it < result.iterations; ++it) {
    oracle->ApplyPhaseFlip(&sv);
    ApplyDiffusion(&sv);
  }

  double success = 0.0;
  for (uint64_t z = 0; z < n; ++z) {
    if (oracle->Peek(z)) success += std::norm(sv.amplitude(z));
  }
  result.success_probability = success;
  result.measured = sv.SampleBasisState(rng);
  result.found = oracle->Peek(result.measured);
  result.oracle_queries = oracle->query_count();
  return result;
}

GroverResult BbhtSearch(int num_qubits, CountingOracle* oracle, Rng* rng) {
  QDM_CHECK_GT(num_qubits, 0);
  const uint64_t n = uint64_t{1} << num_qubits;
  const double lambda = 6.0 / 5.0;
  const linalg::Matrix h =
      circuit::SingleQubitMatrix(circuit::GateKind::kH, {});

  GroverResult result;
  double m = 1.0;
  // BBHT terminates in expected O(sqrt(N)) queries when a solution exists; the
  // cutoff bounds the no-solution case.
  const int64_t cutoff = static_cast<int64_t>(
      16 * std::ceil(std::sqrt(static_cast<double>(n)))) + 64;
  while (oracle->query_count() < cutoff) {
    const int j = static_cast<int>(rng->UniformInt(0, static_cast<int64_t>(m)));
    sim::Statevector sv(num_qubits);
    for (int q = 0; q < num_qubits; ++q) sv.Apply1Q(h, q);
    for (int it = 0; it < j; ++it) {
      oracle->ApplyPhaseFlip(&sv);
      ApplyDiffusion(&sv);
    }
    result.iterations += j;
    const uint64_t y = sv.SampleBasisState(rng);
    if (oracle->Query(y)) {  // Classical verification costs one query.
      result.measured = y;
      result.found = true;
      break;
    }
    m = std::min(lambda * m, std::sqrt(static_cast<double>(n)));
  }
  result.oracle_queries = oracle->query_count();
  return result;
}

ClassicalSearchResult ClassicalLinearSearch(uint64_t num_states,
                                            CountingOracle* oracle, Rng* rng) {
  // Scan in a random order: expected (N+1)/(M+1) probes.
  std::vector<uint64_t> order(num_states);
  for (uint64_t i = 0; i < num_states; ++i) order[i] = i;
  for (uint64_t i = num_states; i > 1; --i) {
    const uint64_t j = static_cast<uint64_t>(rng->UniformInt(0, i - 1));
    std::swap(order[i - 1], order[j]);
  }
  ClassicalSearchResult result;
  for (uint64_t x : order) {
    if (oracle->Query(x)) {
      result.found = true;
      result.found_index = x;
      break;
    }
  }
  result.queries = oracle->query_count();
  return result;
}

circuit::Circuit GroverCircuit(int num_qubits, uint64_t marked,
                               int iterations) {
  QDM_CHECK_GT(num_qubits, 0);
  QDM_CHECK_LT(marked, uint64_t{1} << num_qubits);
  const int num_ancillas =
      circuit::MultiControlledAncillaCount(num_qubits - 1);
  circuit::Circuit c(num_qubits + num_ancillas);

  std::vector<int> data(num_qubits);
  for (int q = 0; q < num_qubits; ++q) data[q] = q;
  std::vector<int> ancillas(num_ancillas);
  for (int a = 0; a < num_ancillas; ++a) ancillas[a] = num_qubits + a;

  std::vector<int> controls(data.begin(), data.end() - 1);
  const int target = data.back();

  for (int q : data) c.H(q);
  for (int it = 0; it < iterations; ++it) {
    // Oracle: phase-flip |marked>. Conjugate an all-ones MCZ with X on the
    // zero bits of `marked`.
    for (int q : data) {
      if (((marked >> q) & 1) == 0) c.X(q);
    }
    if (num_qubits == 1) {
      c.Z(0);
    } else {
      circuit::AppendMultiControlledZ(&c, controls, target, ancillas);
    }
    for (int q : data) {
      if (((marked >> q) & 1) == 0) c.X(q);
    }
    // Diffusion: H^n X^n MCZ X^n H^n.
    for (int q : data) c.H(q);
    for (int q : data) c.X(q);
    if (num_qubits == 1) {
      c.Z(0);
    } else {
      circuit::AppendMultiControlledZ(&c, controls, target, ancillas);
    }
    for (int q : data) c.X(q);
    for (int q : data) c.H(q);
  }
  return c;
}

MinimumResult DurrHoyerMinimum(int num_qubits,
                               const std::function<double(uint64_t)>& f,
                               Rng* rng) {
  QDM_CHECK_GT(num_qubits, 0);
  const uint64_t n = uint64_t{1} << num_qubits;

  MinimumResult result;
  uint64_t threshold_index =
      static_cast<uint64_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  double threshold = f(threshold_index);

  // Durr-Hoyer run until the 22.5 sqrt(N) query budget is exhausted (their
  // Theorem 1 bound); each round strictly lowers the threshold.
  const int64_t budget = static_cast<int64_t>(
      22.5 * std::sqrt(static_cast<double>(n))) + 32;
  int64_t used = 0;
  while (used < budget) {
    CountingOracle below([&](uint64_t x) { return f(x) < threshold; });
    GroverResult found = BbhtSearch(num_qubits, &below, rng);
    used += found.oracle_queries;
    if (!found.found) break;  // Nothing below the threshold: done.
    threshold_index = found.measured;
    threshold = f(threshold_index);
  }
  result.argmin = threshold_index;
  result.minimum = threshold;
  result.oracle_queries = used;
  return result;
}

}  // namespace algo
}  // namespace qdm
