#include "qdm/anneal/frozen_qubo.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "qdm/common/check.h"

namespace qdm {
namespace anneal {

FrozenQubo::FrozenQubo(const Qubo& qubo)
    : num_variables_(qubo.num_variables()),
      offset_(qubo.offset()),
      linear_(qubo.num_variables()),
      offsets_(qubo.num_variables() + 1, 0) {
  double min_nonzero = 0.0;
  const auto note = [&](double w) {
    max_abs_coefficient_ = std::max(max_abs_coefficient_, std::abs(w));
    min_nonzero = min_nonzero == 0.0 ? std::abs(w)
                                     : std::min(min_nonzero, std::abs(w));
  };
  for (int i = 0; i < num_variables_; ++i) {
    linear_[i] = qubo.linear(i);
    if (linear_[i] != 0.0) note(linear_[i]);
  }
  for (const auto& [key, w] : qubo.quadratic_terms()) {
    if (w == 0.0) continue;
    ++offsets_[key.first + 1];
    ++offsets_[key.second + 1];
    note(w);
  }
  min_abs_coefficient_ = min_nonzero;
  for (int i = 0; i < num_variables_; ++i) offsets_[i + 1] += offsets_[i];

  // The term map iterates (i, j) in ascending order, so row r receives its
  // lower neighbours (k, r) before its upper ones (r, j), each ascending:
  // every row comes out sorted without a separate sort.
  neighbors_.resize(offsets_[num_variables_]);
  weights_.resize(offsets_[num_variables_]);
  std::vector<int> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [key, w] : qubo.quadratic_terms()) {
    if (w == 0.0) continue;
    const int a = fill[key.first]++;
    neighbors_[a] = key.second;
    weights_[a] = w;
    const int b = fill[key.second]++;
    neighbors_[b] = key.first;
    weights_[b] = w;
  }
}

double FrozenQubo::Energy(const Assignment& x) const {
  QDM_CHECK_EQ(x.size(), static_cast<size_t>(num_variables_));
  double e = offset_;
  for (int i = 0; i < num_variables_; ++i) {
    if (x[i]) e += linear_[i];
  }
  for (int i = 0; i < num_variables_; ++i) {
    if (!x[i]) continue;
    for (int k = offsets_[i]; k < offsets_[i + 1]; ++k) {
      if (neighbors_[k] > i && x[neighbors_[k]]) e += weights_[k];
    }
  }
  return e;
}

double FrozenQubo::Field(const Assignment& x, int i) const {
  double field = linear_[i];
  for (int k = offsets_[i]; k < offsets_[i + 1]; ++k) {
    if (x[neighbors_[k]]) field += weights_[k];
  }
  return field;
}

LocalFields::LocalFields(const FrozenQubo& model, Assignment x)
    : model_(&model), x_(std::move(x)), field_(model.num_variables()) {
  QDM_CHECK_EQ(x_.size(), static_cast<size_t>(model.num_variables()));
  for (int i = 0; i < model.num_variables(); ++i) {
    field_[i] = model.Field(x_, i);
  }
}

}  // namespace anneal
}  // namespace qdm
