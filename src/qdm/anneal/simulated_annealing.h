#ifndef QDM_ANNEAL_SIMULATED_ANNEALING_H_
#define QDM_ANNEAL_SIMULATED_ANNEALING_H_

#include "qdm/anneal/sampler.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {

/// Configuration for the Metropolis anneal.
struct AnnealSchedule {
  /// Number of full sweeps (each sweep proposes one flip per variable).
  int num_sweeps = 200;
  /// Inverse temperature at the start / end of the geometric schedule.
  /// When beta_max <= 0 both endpoints are auto-scaled from the problem's
  /// coefficient range (hot start that accepts ~most moves, cold end that
  /// freezes single-coefficient excitations).
  double beta_min = 0.0;
  double beta_max = 0.0;
};

/// Metropolis simulated annealing over QUBO variables. This is the toolkit's
/// stand-in for the D-Wave quantum annealer: the *interface* (QUBO in,
/// low-energy samples out, quality improving with anneal length / num_reads)
/// matches the physical device; the dynamics are classical Metropolis.
class SimulatedAnnealer {
 public:
  explicit SimulatedAnnealer(AnnealSchedule schedule = AnnealSchedule{})
      : schedule_(schedule) {}

  SampleSet SampleQubo(const Qubo& qubo, int num_reads, Rng* rng);

  const AnnealSchedule& schedule() const { return schedule_; }

 private:
  AnnealSchedule schedule_;
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_SIMULATED_ANNEALING_H_
