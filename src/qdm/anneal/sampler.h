#ifndef QDM_ANNEAL_SAMPLER_H_
#define QDM_ANNEAL_SAMPLER_H_

#include <string>
#include <utility>
#include <vector>

#include "qdm/anneal/qubo.h"

namespace qdm {
namespace anneal {

// The result types of every QUBO backend: the concrete algorithm classes'
// SampleQubo and the polymorphic QuboSolver interface (solver.h) both
// return a SampleSet.

/// One sampled solution with its energy.
struct Sample {
  Assignment assignment;
  double energy = 0.0;
  /// Fraction of embedding chains that disagreed internally (0 when the
  /// sample did not come through an embedding).
  double chain_break_fraction = 0.0;
};

/// A set of samples, kept sorted by ascending energy.
class SampleSet {
 public:
  SampleSet() = default;

  void Add(Sample sample);

  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Lowest-energy sample.
  const Sample& best() const;

  /// Fraction of samples whose energy is within `tol` of the best.
  double SuccessRate(double target_energy, double tol = 1e-9) const;

  /// Mean fidelity of the sampled states with the ideal (noiseless) state;
  /// 1.0 unless the set came through a noisy gate-based backend
  /// (docs/noise.md). Exact solves and classical backends leave it at 1.0.
  double noise_fidelity() const { return noise_fidelity_; }
  void set_noise_fidelity(double fidelity) { noise_fidelity_ = fidelity; }

  /// Which member an adaptive:* portfolio ran for this solve, recorded as
  /// "<phase>:<arm>:<member>" with phase "explore" (all members raced, arm
  /// won) or "commit" (only member `arm` ran) — see adaptive_solver.h for
  /// the grammar and ReplayAdaptiveDecision for bit-exact replay. Empty for
  /// every non-adaptive backend; rides the wire format
  /// backward-compatibly (emitted only when non-empty).
  const std::string& decision() const { return decision_; }
  void set_decision(std::string decision) { decision_ = std::move(decision); }

 private:
  std::vector<Sample> samples_;
  double noise_fidelity_ = 1.0;
  std::string decision_;
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_SAMPLER_H_
