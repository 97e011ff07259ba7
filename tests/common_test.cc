#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "qdm/common/rng.h"
#include "qdm/common/status.h"
#include "qdm/common/strings.h"
#include "qdm/common/table_printer.h"

namespace qdm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad qubit index");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad qubit index");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad qubit index");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, AsyncLifecycleFactories) {
  Status cancelled = Status::Cancelled("job 3 cancelled while queued");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: job 3 cancelled while queued");

  Status late = Status::DeadlineExceeded("deadline expired while queued");
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: deadline expired while queued");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("no such relation");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  QDM_ASSIGN_OR_RETURN(*out, HalveEven(x));
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  Status s = UseAssignOrReturn(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0) && seen.count(3));
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[rng.Categorical({1.0, 2.0, 7.0})];
  EXPECT_NEAR(counts[0] / 30000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 30000.0, 0.2, 0.02);
  EXPECT_NEAR(counts[2] / 30000.0, 0.7, 0.02);
}

TEST(RngTest, CategoricalSkipsZeroWeight) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Categorical({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// Rng's stream must be exactly that of std::mt19937_64 read through the
// libstdc++ distributions: every seed-exact result in the toolkit was
// recorded on it. 10000 draws span 32 refills of the 312-word state.
const uint64_t kStreamSeeds[] = {0, 1, ~uint64_t{0}, Rng::kDefaultSeed};
constexpr int kStreamDraws = 10000;

TEST(RngStreamTest, EngineEqualsStdMt19937_64) {
  for (uint64_t seed : kStreamSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < kStreamDraws; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(RngStreamTest, UniformEqualsStdUniformRealDistribution) {
  for (uint64_t seed : kStreamSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < kStreamDraws; ++i) {
      ASSERT_EQ(rng.Uniform(), unit(reference))
          << "seed " << seed << " draw " << i;
    }
  }
}

// libstdc++'s normal_distribution (Marsaglia's polar method) is a chain of
// multiply-adds. Where the target has FMA, GCC contracts them, and not
// always the same way in two instantiations of the template (here over
// Mt19937_64 and over std::mt19937_64), so the values may differ in the last
// bits; -ffp-contract=off removes the difference. Without FMA both compute
// the same rounded expressions and must agree exactly.
void ExpectSameGaussian(double value, double reference) {
#ifdef __FMA__
  EXPECT_NEAR(value, reference, 1e-12 * std::max(1.0, std::fabs(reference)));
#else
  EXPECT_EQ(value, reference);
#endif
}

TEST(RngStreamTest, DistributionsEqualStdDistributionsOnStdEngine) {
  const std::vector<double> weights = {0.5, 0.0, 2.0, 1.5};
  for (uint64_t seed : kStreamSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::normal_distribution<double> normal(0.0, 1.0);
    std::exponential_distribution<double> exponential(0.25);
    for (int i = 0; i < kStreamDraws / 10; ++i) {
      std::uniform_int_distribution<int64_t> range(-3, 1000 + i);
      ASSERT_EQ(rng.UniformInt(-3, 1000 + i), range(reference));
      ExpectSameGaussian(rng.Gaussian(), normal(reference));
      ASSERT_EQ(rng.Uniform(-2.0, 3.0), -2.0 + 5.0 * unit(reference));
      ASSERT_EQ(rng.Exponential(0.25), exponential(reference));
      ASSERT_EQ(rng.Bernoulli(0.3), unit(reference) < 0.3);

      // Categorical: one draw scaled by the total, then a cumulative scan.
      const double r = unit(reference) * 4.0;
      size_t expected = weights.size() - 1;
      double acc = 0.0;
      for (size_t k = 0; k < weights.size(); ++k) {
        acc += weights[k];
        if (r < acc) {
          expected = k;
          break;
        }
      }
      ASSERT_EQ(rng.Categorical(weights), expected);

      // Shuffle: Fisher-Yates from the back, one UniformInt per position.
      std::vector<int> items = {0, 1, 2, 3, 4, 5, 6};
      std::vector<int> reference_items = items;
      rng.Shuffle(&items);
      for (size_t k = reference_items.size(); k > 1; --k) {
        const int64_t last = static_cast<int64_t>(k) - 1;
        std::uniform_int_distribution<int64_t> pick(0, last);
        std::swap(reference_items[last], reference_items[pick(reference)]);
      }
      ASSERT_EQ(items, reference_items);
    }
    // Both engines are still in step after the mixed sequence.
    ASSERT_EQ(rng.engine()(), reference());
  }
}

// A bit generator that returns one fixed word: feeds an exact input to
// libstdc++'s generate_canonical.
struct FixedWord {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return word; }
  result_type word;
};

TEST(RngStreamTest, UnitFromBitsMatchesGenerateCanonicalOnEdgeWords) {
  const uint64_t p53 = uint64_t{1} << 53;
  const uint64_t p63 = uint64_t{1} << 63;
  const uint64_t top = ~uint64_t{0};  // top - 1023 is 2^64 - 2^10.
  const uint64_t words[] = {0, 1, p53 - 1, p53, p53 + 1, p63, top - 1023, top};
  for (uint64_t word : words) {
    FixedWord generator{word};
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    EXPECT_EQ(Rng::UnitFromBits(word), unit(generator)) << "word " << word;
  }
  EXPECT_EQ(Rng::UnitFromBits(0), 0.0);
  EXPECT_EQ(Rng::UnitFromBits(1), 0x1p-64);
  EXPECT_EQ(Rng::UnitFromBits(p63), 0.5);
  // The top two words round up to 2^64 and take the clamp below 1.
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(Rng::UnitFromBits(top - 1023), below_one);
  EXPECT_EQ(Rng::UnitFromBits(top), below_one);
}

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, JoinAndSplitRoundTrip) {
  std::vector<std::string> parts{"a", "", "bc"};
  EXPECT_EQ(StrJoin(parts, ","), "a,,bc");
  EXPECT_EQ(StrSplit("a,,bc", ','), parts);
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  x y\t\n"), "x y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
  EXPECT_EQ(ToLower("QuBiT"), "qubit");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"N", "value"});
  t.AddRow({"8", "1"});
  t.AddRow({"1024", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("N     value"), std::string::npos);
  EXPECT_NE(s.find("1024  22"), std::string::npos);
}

}  // namespace
}  // namespace qdm
