#include "qdm/common/rng.h"

namespace qdm {

namespace {

constexpr int kShift = 156;  // MT19937-64's middle word offset m.
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;
constexpr uint64_t kSeedMultiplier = 6364136223846793005ull;

// One step of the twist: the next state word from x[k], x[k + 1] and
// x[k + m]. The conditional xor with A is a mask, not a branch.
inline uint64_t Twist(uint64_t current, uint64_t next, uint64_t shifted) {
  const uint64_t y = (current & kUpperMask) | (next & kLowerMask);
  return shifted ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (int i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  uint64_t* x = state_;
  // Split, as in the reference generator, where x[k + m] wraps around: each
  // step reads only words not yet rewritten (k + 1, k + m) or already final
  // (k + m - n), so both loops vectorize.
  for (int k = 0; k < kStateSize - kShift; ++k) {
    x[k] = Twist(x[k], x[k + 1], x[k + kShift]);
  }
  for (int k = kStateSize - kShift; k < kStateSize - 1; ++k) {
    x[k] = Twist(x[k], x[k + 1], x[k + kShift - kStateSize]);
  }
  x[kStateSize - 1] = Twist(x[kStateSize - 1], x[0], x[kShift - 1]);
  index_ = 0;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  QDM_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    QDM_CHECK_GE(w, 0.0);
    total += w;
  }
  QDM_CHECK_GT(total, 0.0)
      << "Categorical() needs at least one positive weight";
  double r = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // Guard against floating-point round-off.
}

}  // namespace qdm
