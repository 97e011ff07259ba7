#include "qdm/anneal/exact_solver.h"

#include "qdm/anneal/frozen_qubo.h"
#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

Sample ExactSolver::Solve(const Qubo& qubo) {
  const int n = qubo.num_variables();
  QDM_CHECK_LE(n, 30) << "ExactSolver enumerates 2^n assignments";
  const FrozenQubo model(qubo);

  LocalFields walker(model, Assignment(n, 0));
  double energy = model.Energy(walker.x());
  Assignment best = walker.x();
  double best_energy = energy;

  // Gray-code walk: step k flips bit ctz(k).
  const uint64_t total = uint64_t{1} << n;
  for (uint64_t k = 1; k < total; ++k) {
    const int bit = __builtin_ctzll(k);
    energy += walker.Delta(bit);
    walker.Flip(bit);
    if (energy < best_energy) {
      best_energy = energy;
      best = walker.x();
    }
  }
  return Sample{best, model.Energy(best), 0.0};
}

SampleSet ExactSolver::SampleQubo(const Qubo& qubo, int /*num_reads*/,
                              Rng* /*rng*/) {
  SampleSet set;
  set.Add(Solve(qubo));
  return set;
}

}  // namespace anneal
}  // namespace qdm
