#include "qdm/anneal/parallel_tempering.h"

#include <cmath>
#include <utility>

#include "qdm/anneal/frozen_qubo.h"
#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

SampleSet ParallelTempering::SampleQubo(const Qubo& qubo, int num_reads,
                                        Rng* rng) {
  QDM_CHECK_GT(num_reads, 0);
  QDM_CHECK_GE(options_.num_replicas, 2);
  const FrozenQubo model(qubo);
  const int n = model.num_variables();

  double beta_min = options_.beta_min;
  double beta_max = options_.beta_max;
  if (beta_max <= 0.0) {
    const double hottest = std::max(model.max_abs_coefficient(), 1e-9);
    const double coldest = std::max(model.min_abs_coefficient(), 1e-9);
    beta_min = 0.1 / hottest;
    beta_max = 10.0 / coldest;
  }
  const int r = options_.num_replicas;
  std::vector<double> betas(r);
  for (int k = 0; k < r; ++k) {
    betas[k] = beta_min * std::pow(beta_max / beta_min,
                                   static_cast<double>(k) / (r - 1));
  }

  SampleSet result;
  for (int read = 0; read < num_reads; ++read) {
    std::vector<LocalFields> replicas;
    replicas.reserve(r);
    std::vector<double> energies(r);
    for (int k = 0; k < r; ++k) {
      Assignment x(n);
      for (int i = 0; i < n; ++i) x[i] = rng->Bernoulli(0.5) ? 1 : 0;
      energies[k] = model.Energy(x);
      replicas.emplace_back(model, std::move(x));
    }

    Assignment best = replicas[0].x();
    double best_energy = energies[0];

    for (int sweep = 0; sweep < options_.num_sweeps; ++sweep) {
      for (int k = 0; k < r; ++k) {
        for (int i = 0; i < n; ++i) {
          const double delta = replicas[k].Delta(i);
          if (delta <= 0.0 ||
              MetropolisAccept(rng->Uniform(), betas[k] * delta)) {
            replicas[k].Flip(i);
            energies[k] += delta;
          }
        }
        if (energies[k] < best_energy) {
          best_energy = energies[k];
          best = replicas[k].x();
        }
      }
      if (options_.swap_interval > 0 && sweep % options_.swap_interval == 0) {
        for (int k = 0; k + 1 < r; ++k) {
          const double arg = (betas[k + 1] - betas[k]) *
                             (energies[k + 1] - energies[k]);
          if (arg >= 0.0 || MetropolisAccept(rng->Uniform(), -arg)) {
            std::swap(replicas[k], replicas[k + 1]);
            std::swap(energies[k], energies[k + 1]);
          }
        }
      }
    }
    // Running energies steer swaps and the incumbent; the reported energy
    // is the canonical one.
    result.Add(Sample{best, model.Energy(best), 0.0});
  }
  return result;
}

}  // namespace anneal
}  // namespace qdm
