#ifndef QDM_ANNEAL_EXACT_SOLVER_H_
#define QDM_ANNEAL_EXACT_SOLVER_H_

#include "qdm/anneal/sampler.h"
#include "qdm/common/rng.h"

namespace qdm {
namespace anneal {

/// Exhaustive ground-truth solver. Enumerates all 2^n assignments in Gray-code
/// order (O(deg) incremental energy updates), so it is practical up to ~28
/// variables. Every solver-quality experiment uses this as the optimum
/// reference on small instances.
class ExactSolver {
 public:
  /// `num_reads` is ignored; the returned set holds the global optimum (and
  /// only it).
  SampleSet SampleQubo(const Qubo& qubo, int num_reads, Rng* rng);

  /// Convenience: ground-state energy and an optimal assignment.
  static Sample Solve(const Qubo& qubo);
};

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_EXACT_SOLVER_H_
