#ifndef QDM_ANNEAL_TABU_SEARCH_H_
#define QDM_ANNEAL_TABU_SEARCH_H_

#include "qdm/anneal/sampler.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {

/// Deterministic-greedy tabu search over single-bit flips: always takes the
/// best non-tabu flip, allowing uphill moves to escape local minima; a flip
/// is tabu for `tenure` iterations unless it improves the incumbent
/// (aspiration). Classic strong classical QUBO heuristic (cf. qbsolv).
class TabuSearch {
 public:
  struct Options {
    int max_iterations = 500;
    /// Tabu tenure; when <= 0, uses min(20, n/4 + 1).
    int tenure = 0;
  };

  TabuSearch() : options_() {}
  explicit TabuSearch(Options options) : options_(options) {}

  SampleSet SampleQubo(const Qubo& qubo, int num_reads, Rng* rng);

 private:
  Options options_;
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_TABU_SEARCH_H_
