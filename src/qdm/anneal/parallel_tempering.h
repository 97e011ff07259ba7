#ifndef QDM_ANNEAL_PARALLEL_TEMPERING_H_
#define QDM_ANNEAL_PARALLEL_TEMPERING_H_

#include "qdm/anneal/sampler.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {

/// Replica-exchange Monte Carlo (parallel tempering). Runs `num_replicas`
/// Metropolis chains at a geometric ladder of temperatures and periodically
/// proposes replica swaps. Stronger than plain SA on rugged QUBO landscapes
/// (frustrated penalties), at higher cost; serves as the "well-tuned
/// classical heuristic" baseline in the solver-quality benches.
class ParallelTempering {
 public:
  struct Options {
    int num_replicas = 8;
    int num_sweeps = 200;
    /// Inverse temperatures ladder endpoints; auto-scaled when <= 0.
    double beta_min = 0.0;
    double beta_max = 0.0;
    /// Attempt replica swaps every this many sweeps.
    int swap_interval = 5;
  };

  ParallelTempering() : options_() {}
  explicit ParallelTempering(Options options) : options_(options) {}

  SampleSet SampleQubo(const Qubo& qubo, int num_reads, Rng* rng);

 private:
  Options options_;
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_PARALLEL_TEMPERING_H_
