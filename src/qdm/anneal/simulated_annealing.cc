#include "qdm/anneal/simulated_annealing.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qdm/anneal/frozen_qubo.h"
#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

SampleSet SimulatedAnnealer::SampleQubo(const Qubo& qubo, int num_reads,
                                        Rng* rng) {
  QDM_CHECK_GT(num_reads, 0);
  const FrozenQubo model(qubo);
  const int n = model.num_variables();

  double beta_min = schedule_.beta_min;
  double beta_max = schedule_.beta_max;
  if (beta_max <= 0.0) {
    const double hottest = std::max(model.max_abs_coefficient(), 1e-9);
    const double coldest = std::max(model.min_abs_coefficient(), 1e-9);
    beta_min = 0.1 / hottest;   // Hot: accepts nearly everything.
    beta_max = 10.0 / coldest;  // Cold: freezes the smallest excitation.
  }
  QDM_CHECK_GT(beta_min, 0.0);
  QDM_CHECK_GE(beta_max, beta_min);
  const int sweeps = schedule_.num_sweeps;
  const double ratio =
      sweeps > 1 ? std::pow(beta_max / beta_min, 1.0 / (sweeps - 1)) : 1.0;

  SampleSet result;
  for (int read = 0; read < num_reads; ++read) {
    Assignment x(n);
    for (int i = 0; i < n; ++i) x[i] = rng->Bernoulli(0.5) ? 1 : 0;
    LocalFields walker(model, std::move(x));

    double beta = beta_min;
    for (int sweep = 0; sweep < sweeps; ++sweep, beta *= ratio) {
      for (int i = 0; i < n; ++i) {
        const double delta = walker.Delta(i);
        if (delta <= 0.0 || MetropolisAccept(rng->Uniform(), beta * delta)) {
          walker.Flip(i);
        }
      }
    }
    result.Add(Sample{walker.x(), model.Energy(walker.x()), 0.0});
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
