// Unit tests for the support module: RNG, math helpers, statistics,
// hot-path containers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/containers.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace urn {
namespace {

// ---------------------------------------------------------------- check ---

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(URN_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(URN_CHECK(false), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    URN_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, SameSeedSameStream) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelowBound) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, n * 0.01);
  }
}

TEST(Rng, RangeInclusiveBothEnds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceZeroNeverOneAlways) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng(15);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) {
    const auto [x, y] = normal_pair(rng);
    acc.add(x);
    acc.add(y);
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(16);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng a(17);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, MixSeedIsOrderSensitive) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_NE(mix_seed(0, 0), mix_seed(0, 1));
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  SUCCEED();
}

// ------------------------------------------------------------- mathutil ---

TEST(MathUtil, CeilLog2KnownValues) {
  EXPECT_EQ(ceil_log2(0), 0u);
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtil, SafeLogPinsSmallInputs) {
  EXPECT_DOUBLE_EQ(safe_log(0), 1.0);
  EXPECT_DOUBLE_EQ(safe_log(1), 1.0);
  EXPECT_DOUBLE_EQ(safe_log(2), 1.0);
  EXPECT_NEAR(safe_log(100), std::log(100.0), 1e-12);
}

TEST(MathUtil, CeilMulLogRoundsUp) {
  // 2.0 * ln(100) = 9.21…, so the paper's ceiling convention gives 10.
  EXPECT_EQ(ceil_mul_log(2.0, 100), 10);
  EXPECT_EQ(ceil_mul_log(0.0, 100), 0);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
}

// Fact 1 (paper): e^t (1 − t²/n) ≤ (1 + t/n)^n ≤ e^t for n ≥ 1, |t| ≤ n.
class Fact1Sweep : public ::testing::TestWithParam<std::pair<double, double>> {
};

TEST_P(Fact1Sweep, BracketsHold) {
  const auto [t, n] = GetParam();
  const double mid = fact1_middle(t, n);
  EXPECT_LE(fact1_lower(t, n), mid + 1e-9);
  EXPECT_LE(mid, fact1_upper(t) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Fact1, Fact1Sweep,
    ::testing::Values(std::pair{-1.0, 2.0}, std::pair{-1.0, 10.0},
                      std::pair{-0.5, 1.0}, std::pair{0.0, 5.0},
                      std::pair{1.0, 1.0}, std::pair{1.0, 100.0},
                      std::pair{2.0, 4.0}, std::pair{3.0, 1000.0},
                      std::pair{-2.0, 8.0}, std::pair{0.1, 1.0}));

// ---------------------------------------------------------------- stats ---

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownMeanAndVariance) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(20);
  Accumulator whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = normal_pair(rng).first;
    whole.add(x);
    (i < 500 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 25.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(37.0), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Samples, AddAllAndMoments) {
  Samples s;
  s.add_all({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(Samples, PercentileAfterLateAdd) {
  Samples s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.max(), 1.0);
  s.add(10.0);  // must invalidate the sorted cache
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(LinearFit, ExactLineRecovered) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x - 1.0);
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineHasHighR2) {
  Rng rng(21);
  std::vector<double> xs, ys;
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i);
    xs.push_back(x);
    ys.push_back(2.0 * x + 5.0 + normal_pair(rng).first);
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFit, ConstantXGivesZeroSlope) {
  const LinearFit fit = fit_line({2.0, 2.0, 2.0}, {1.0, 5.0, 9.0});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 5.0);
}

// ----------------------------------------------------------- containers ---

TEST(RingQueue, FifoOrderAcrossGrowth) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, WrapsAroundMatchingDeque) {
  // Interleaved push/pop forces head_ to wrap; a std::deque is the oracle.
  RingQueue<int> q;
  std::deque<int> oracle;
  Rng rng(22);
  for (int step = 0; step < 2000; ++step) {
    if (oracle.empty() || rng.chance(0.6)) {
      q.push_back(step);
      oracle.push_back(step);
    } else {
      EXPECT_EQ(q.front(), oracle.front());
      q.pop_front();
      oracle.pop_front();
    }
    EXPECT_EQ(q.size(), oracle.size());
  }
  for (std::size_t i = 0; i < oracle.size(); ++i) EXPECT_EQ(q.at(i), oracle[i]);
}

TEST(RingQueue, ContainsScansFifoContents) {
  RingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  EXPECT_FALSE(q.contains(4));  // popped
  EXPECT_TRUE(q.contains(5));
  EXPECT_TRUE(q.contains(9));
  EXPECT_FALSE(q.contains(10));
}

TEST(RingQueue, ClearKeepsBufferAndResets) {
  RingQueue<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back(42);
  EXPECT_EQ(q.front(), 42);
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace urn
