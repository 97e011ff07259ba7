#include "qdm/anneal/tabu_search.h"

#include <algorithm>
#include <utility>

#include "qdm/anneal/frozen_qubo.h"
#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

SampleSet TabuSearch::SampleQubo(const Qubo& qubo, int num_reads, Rng* rng) {
  QDM_CHECK_GT(num_reads, 0);
  const FrozenQubo model(qubo);
  const int n = model.num_variables();
  const int tenure =
      options_.tenure > 0 ? options_.tenure : std::min(20, n / 4 + 1);

  SampleSet result;
  for (int read = 0; read < num_reads; ++read) {
    Assignment x(n);
    for (int i = 0; i < n; ++i) x[i] = rng->Bernoulli(0.5) ? 1 : 0;
    double energy = model.Energy(x);
    Assignment best = x;
    double best_energy = energy;
    LocalFields walker(model, std::move(x));

    std::vector<int> tabu_until(n, -1);
    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      int chosen = -1;
      double chosen_delta = 0.0;
      for (int i = 0; i < n; ++i) {
        const double delta = walker.Delta(i);
        const bool tabu = tabu_until[i] > iter;
        const bool aspiration = energy + delta < best_energy;
        if (tabu && !aspiration) continue;
        if (chosen == -1 || delta < chosen_delta) {
          chosen = i;
          chosen_delta = delta;
        }
      }
      if (chosen == -1) break;  // Everything tabu: restart would be needed.
      walker.Flip(chosen);
      energy += chosen_delta;
      tabu_until[chosen] = iter + tenure;
      if (energy < best_energy) {
        best_energy = energy;
        best = walker.x();
      }
    }
    // The walk's running energy steers aspiration; the reported energy is
    // the canonical one, so equal assignments carry equal energies.
    result.Add(Sample{best, model.Energy(best), 0.0});
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
