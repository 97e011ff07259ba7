#ifndef QDM_ANNEAL_FROZEN_QUBO_H_
#define QDM_ANNEAL_FROZEN_QUBO_H_

#include <cmath>
#include <vector>

#include "qdm/anneal/qubo.h"

namespace qdm {
namespace anneal {

/// The classical kernel under every single-flip search in the toolkit
/// (SimulatedAnnealer, ParallelTempering, TabuSearch, the ExactSolver
/// Gray-code walk and the kMinimizeEnergy chain repair): a Qubo frozen once
/// per solve into compressed sparse rows. Row i lists every j with a nonzero
/// b_ij in ascending order (`neighbors`), with the matching weights
/// (`weights`); rows are delimited by `offsets` (size n + 1). Zero-weight
/// terms are dropped. The model is immutable after construction, so one
/// instance may be read by any number of LocalFields walkers.
class FrozenQubo {
 public:
  explicit FrozenQubo(const Qubo& qubo);

  int num_variables() const { return num_variables_; }
  double linear(int i) const { return linear_[i]; }

  /// Row i occupies [row_begin(i), row_end(i)) of neighbors()/weights().
  int row_begin(int i) const { return offsets_[i]; }
  int row_end(int i) const { return offsets_[i + 1]; }
  const std::vector<int>& neighbors() const { return neighbors_; }
  const std::vector<double>& weights() const { return weights_; }

  /// E(x), summed in the same order as Qubo::Energy (offset, linear terms by
  /// index, quadratic terms by (i, j)), so the two agree bit for bit. This
  /// is the canonical energy every kernel user reports for a sample.
  double Energy(const Assignment& x) const;

  /// Local field a_i + sum_j b_ij x_j, freshly summed. O(deg(i)).
  double Field(const Assignment& x, int i) const;

  double max_abs_coefficient() const { return max_abs_coefficient_; }
  /// Smallest nonzero |coefficient|.
  double min_abs_coefficient() const { return min_abs_coefficient_; }

 private:
  int num_variables_;
  double offset_;
  double max_abs_coefficient_ = 0.0;
  double min_abs_coefficient_ = 0.0;
  std::vector<double> linear_;
  std::vector<int> offsets_;
  std::vector<int> neighbors_;
  std::vector<double> weights_;
};

/// One walker over a FrozenQubo: an assignment x plus its local fields,
/// kept under the invariant field[i] == a_i + sum_j b_ij x_j. Proposing a
/// flip reads one field (O(1)); only an accepted flip pays O(deg(i)) to
/// update its neighbours. The fields are maintained incrementally, so they
/// may drift from a fresh FrozenQubo::Field by rounding error; report
/// energies with FrozenQubo::Energy, never by summing deltas.
class LocalFields {
 public:
  /// Sums every field afresh. O(n + nnz). `model` must outlive this walker.
  LocalFields(const FrozenQubo& model, Assignment x);

  const Assignment& x() const { return x_; }
  double field(int i) const { return field_[i]; }

  /// Energy change of flipping x_i. O(1).
  double Delta(int i) const { return x_[i] ? -field_[i] : field_[i]; }

  /// Flips x_i and updates its neighbours' fields. O(deg(i)).
  void Flip(int i) {
    const double sign = x_[i] ? -1.0 : 1.0;
    x_[i] ^= 1;
    const int* nbr = model_->neighbors().data();
    const double* w = model_->weights().data();
    for (int k = model_->row_begin(i), end = model_->row_end(i); k < end;
         ++k) {
      field_[nbr[k]] += sign * w[k];
    }
  }

 private:
  const FrozenQubo* model_;
  Assignment x_;
  std::vector<double> field_;
};

/// The Metropolis test of an uphill move: exactly u < exp(-x), where x is
/// the move's exponent (beta * delta for a flip, the negated log-ratio for
/// a replica swap) and u a Rng::Uniform() draw. exp(-45) < 2^-64, so for
/// x > 45 no u >= 2^-64 can pass and the exp is skipped; every nonzero
/// Uniform() is at least 2^-64, so among draws only u == 0 still evaluates
/// it there. The caller draws u unconditionally, so the stream does not
/// depend on which branch is taken.
inline bool MetropolisAccept(double u, double x) {
  return (x <= 45.0 || u < 0x1p-64) && u < std::exp(-x);
}

}  // namespace anneal
}  // namespace qdm

#endif  // QDM_ANNEAL_FROZEN_QUBO_H_
