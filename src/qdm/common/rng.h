#ifndef QDM_COMMON_RNG_H_
#define QDM_COMMON_RNG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "qdm/common/check.h"

namespace qdm {

/// MT19937-64 with the output of std::mt19937_64 word for word (same
/// seeding, twist and tempering), but cheaper per draw: the 312-word state
/// is refilled in one out-of-line pass whose loops have no data-dependent
/// branch (the twist's conditional xor is the mask (0 - (y & 1)) & a), so
/// the compiler can vectorize them. Satisfies UniformRandomBitGenerator, so
/// the std distributions take it in place of std::mt19937_64 and return the
/// same values.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr int kStateSize = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (index_ == kStateSize) Refill();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  void Refill();

  result_type state_[kStateSize];
  int index_ = kStateSize;
};

/// Deterministic pseudo-random number generator used throughout the toolkit.
/// All stochastic components (annealers, shot sampling, workload generators,
/// network simulation) take an explicit Rng so that experiments are
/// reproducible from a seed.
///
/// The stream is that of std::mt19937_64 read through the libstdc++ std
/// distributions: Uniform() equals std::uniform_real_distribution<double>
/// (0, 1), and UniformInt, Gaussian, Exponential, Shuffle and Categorical
/// equal their std counterparts on a std::mt19937_64 with the same seed
/// (tests/common_test.cc pins every one; in builds that contract into FMA,
/// libstdc++'s Gaussian itself may round differently per instantiation).
/// Every seed-exact result in the toolkit (determinism matrices, perf-gated
/// fidelities, golden SampleSets) was recorded on that stream, so the faster
/// engine and the branchless Uniform() below reproduce it bit for bit rather
/// than replace it.
class Rng {
 public:
  /// Seed used when none is given (and the zero-means-default mapping of
  /// anneal::SolverOptions.seed / per-shot seed derivation resolve to it).
  static constexpr uint64_t kDefaultSeed = 0x9E3779B97F4A7C15ull;

  explicit Rng(uint64_t seed = kDefaultSeed) : engine_(seed) {}

  /// Maps a 64-bit word to [0, 1) exactly as libstdc++'s generate_canonical
  /// does: double(bits) * 2^-64, clamped to the largest double below 1 when
  /// it rounds up to 1. The plain double(uint64_t) conversion compiles to a
  /// branch on the top bit that mispredicts half the time; the two 32-bit
  /// halves convert exactly, and the one rounded add (or a contracted FMA,
  /// whose product is exact too) gives the correctly rounded double(bits) at
  /// any -march.
  static double UnitFromBits(uint64_t bits) {
    const double hi = static_cast<double>(static_cast<uint32_t>(bits >> 32));
    const double lo = static_cast<double>(static_cast<uint32_t>(bits));
    return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Uniform double in [0, 1).
  double Uniform() { return UnitFromBits(engine_()); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    QDM_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal sample.
  double Gaussian() { return normal_(engine_); }

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return mean + stddev * Gaussian();
  }

  /// Exponential sample with the given rate (mean 1/rate).
  double Exponential(double rate) {
    QDM_CHECK_GT(rate, 0.0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Underlying engine, for std distributions not wrapped here.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace qdm

#endif  // QDM_COMMON_RNG_H_
