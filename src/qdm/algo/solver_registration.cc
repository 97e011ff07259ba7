// Bridges the gate-based samplers (Figure 2's second arm) into the
// anneal::SolverRegistry so applications can dispatch "qaoa" / "vqe" /
// "grover_min" by name, interchangeably with the annealing backends.
// These names also compose with the embedded hardware-topology family
// (anneal/embedded_solver.cc): "embedded:qaoa:chimera:1x1x4" resolves via
// the registry's "embedded:" prefix and runs QAOA on the minor-embedded
// physical problem — mind the 26-qubit state-vector cap when picking the
// topology.

#include "qdm/algo/solver_registration.h"

#include <algorithm>
#include <memory>

#include "qdm/algo/grover_min_sampler.h"
#include "qdm/algo/noisy_sampling.h"
#include "qdm/algo/qaoa.h"
#include "qdm/algo/vqe.h"
#include "qdm/anneal/solver.h"
#include "qdm/common/strings.h"

namespace qdm {
namespace algo {

namespace {

/// BuildDiagonal materializes 2^n doubles and hard-caps at 26 qubits; no
/// gate-based bridge can go beyond that regardless of options.max_qubits.
constexpr int kDiagonalQubitCap = 26;

/// Rejects problems whose 2^n state vector would not fit the simulator.
Status CheckFits(const anneal::Qubo& qubo, int max_qubits, const char* what) {
  if (qubo.num_variables() > max_qubits) {
    return Status::InvalidArgument(
        StrFormat("%s simulates a 2^n state vector; %d variables exceed the "
                  "%d-qubit limit",
                  what, qubo.num_variables(), max_qubits));
  }
  return Status::Ok();
}

/// Shared bridge for the two variational samplers — their Options structs
/// expose the same {layers, restarts, max_qubits} knobs.
template <typename SamplerT>
class VariationalSolver : public anneal::QuboSolver {
 public:
  VariationalSolver(std::string registry_name, const char* label)
      : registry_name_(std::move(registry_name)), label_(label) {}

  Result<anneal::SampleSet> Solve(
      const anneal::Qubo& qubo,
      const anneal::SolverOptions& options) override {
    QDM_RETURN_IF_ERROR(anneal::ValidateSolverOptions(options));
    typename SamplerT::Options opts;
    if (options.layers > 0) opts.layers = options.layers;
    if (options.restarts > 0) opts.restarts = options.restarts;
    if (options.max_qubits > 0) opts.max_qubits = options.max_qubits;
    opts.max_qubits = std::min(opts.max_qubits, kDiagonalQubitCap);
    QDM_RETURN_IF_ERROR(CheckFits(qubo, opts.max_qubits, label_));
    SamplerT sampler(opts);
    if (!options.noise.IsNoiseless()) {
      return sampler.SampleQuboNoisy(qubo, options.num_reads,
                                     ToNoiseModel(options.noise), options);
    }
    Rng rng = anneal::SolverRng(options);
    return sampler.SampleQubo(qubo, options.num_reads, &rng);
  }
  std::string name() const override { return registry_name_; }

 private:
  std::string registry_name_;
  const char* label_;
};

class GroverMinSolver : public anneal::QuboSolver {
 public:
  Result<anneal::SampleSet> Solve(
      const anneal::Qubo& qubo,
      const anneal::SolverOptions& options) override {
    QDM_RETURN_IF_ERROR(anneal::ValidateSolverOptions(options));
    GroverMinSampler::Options grover;
    if (options.max_qubits > 0) grover.max_qubits = options.max_qubits;
    grover.max_qubits = std::min(grover.max_qubits, kDiagonalQubitCap);
    QDM_RETURN_IF_ERROR(
        CheckFits(qubo, grover.max_qubits, "Grover minimum finding"));
    GroverMinSampler sampler(grover);
    Rng rng = anneal::SolverRng(options);
    if (!options.noise.IsNoiseless()) {
      return sampler.SampleQuboNoisy(qubo, options.num_reads,
                                     ToNoiseModel(options.noise), &rng);
    }
    return sampler.SampleQubo(qubo, options.num_reads, &rng);
  }
  std::string name() const override { return "grover_min"; }
};

}  // namespace

bool RegisterGateBasedSolvers() {
  auto& registry = anneal::SolverRegistry::Global();
  // AlreadyExists on re-entry is expected and harmless.
  (void)registry.Register("qaoa", [] {
    return std::make_unique<VariationalSolver<QaoaSampler>>("qaoa", "QAOA");
  });
  (void)registry.Register("vqe", [] {
    return std::make_unique<VariationalSolver<VqeSampler>>("vqe", "VQE");
  });
  (void)registry.Register("grover_min",
                          [] { return std::make_unique<GroverMinSolver>(); });
  return true;
}

namespace {
[[maybe_unused]] const bool kGateBasedSolversRegistered =
    RegisterGateBasedSolvers();
}  // namespace

}  // namespace algo
}  // namespace qdm
