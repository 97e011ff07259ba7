#ifndef QDM_ALGO_GROVER_MIN_SAMPLER_H_
#define QDM_ALGO_GROVER_MIN_SAMPLER_H_

#include "qdm/anneal/qubo.h"
#include "qdm/anneal/sampler.h"
#include "qdm/common/rng.h"
#include "qdm/sim/noise.h"

namespace qdm {
namespace algo {

/// QUBO minimization via Durr-Hoyer quantum minimum finding (Grover's
/// algorithm as the inner loop). This is the third gate-based arm of the
/// paper's Figure 2 and the approach of Groppe & Groppe [IDEAS'21] for
/// transaction schedule optimization: encode candidate solutions as basis
/// states and Grover-search below a descending cost threshold.
class GroverMinSampler {
 public:
  struct Options {
    /// State-vector guard: 2^max_qubits energies are materialized.
    int max_qubits = 20;
  };

  GroverMinSampler() : options_() {}
  explicit GroverMinSampler(Options options) : options_(options) {}

  anneal::SampleSet SampleQubo(const anneal::Qubo& qubo, int num_reads,
                               Rng* rng);

  /// Noisy sibling of SampleQubo (docs/noise.md): the adaptive Durr-Hoyer
  /// search has no single gate-level circuit to inject per-gate errors
  /// into, so each read's measured argmin is corrupted classically via
  /// algo::CorruptBasisState; noise_fidelity is the mean survival
  /// probability of the reads.
  anneal::SampleSet SampleQuboNoisy(const anneal::Qubo& qubo, int num_reads,
                                    const sim::NoiseModel& model, Rng* rng);

  /// Oracle queries consumed by the most recent SampleQubo call.
  int64_t last_oracle_queries() const { return last_oracle_queries_; }

 private:
  Options options_;
  int64_t last_oracle_queries_ = 0;
};

}  // namespace algo
}  // namespace qdm

#endif  // QDM_ALGO_GROVER_MIN_SAMPLER_H_
