// Tests for χ(P_v) (Algorithm 1, line 15): the maximum non-positive value
// outside the critical range of every stored competitor counter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/chi.hpp"
#include "support/rng.hpp"

namespace urn::core {
namespace {

/// χ with a fresh scratch per call (the unit cases below are one-shot).
std::int64_t chi_of(std::span<const std::int64_t> counters,
                    std::int64_t range) {
  std::vector<std::int64_t> scratch;
  return chi(counters, range, scratch);
}

TEST(Chi, EmptyCompetitorListGivesZero) {
  EXPECT_EQ(chi_of({}, 10), 0);
}

TEST(Chi, FarAwayCounterDoesNotConstrain) {
  const std::vector<std::int64_t> counters = {100};
  EXPECT_EQ(chi_of(counters, 10), 0);
}

TEST(Chi, CounterAtZeroPushesBelowItsRange) {
  const std::vector<std::int64_t> counters = {0};
  EXPECT_EQ(chi_of(counters, 10), -11);
}

TEST(Chi, PositiveCounterWhoseRangeReachesZero) {
  const std::vector<std::int64_t> counters = {5};
  // Forbidden: [-5, 15] → largest feasible ≤ 0 is −6.
  EXPECT_EQ(chi_of(counters, 10), -6);
}

TEST(Chi, ZeroRangeOnlyExcludesThePointItself) {
  const std::vector<std::int64_t> counters = {0, -2};
  EXPECT_EQ(chi_of(counters, 0), -1);
}

TEST(Chi, CascadingIntervals) {
  // [-11, 9] and [-25, -5] overlap; union [-25, 9] → −26.
  const std::vector<std::int64_t> counters = {-1, -15};
  EXPECT_EQ(chi_of(counters, 10), -26);
}

TEST(Chi, GapBetweenIntervalsIsUsed) {
  // Ranges (R = 2): [3−2, 3+2] = [1,5] (irrelevant, > 0 after clip? no:
  // lo = 1 > 0 → dropped) and [−10±2] = [−12, −8]. Result: 0.
  const std::vector<std::int64_t> counters = {3, -10};
  EXPECT_EQ(chi_of(counters, 2), 0);
}

TEST(Chi, LandsInGapJustBelowInterval) {
  // R = 2: [-2, 2] forbids 0; next candidate −3; [−9±2] = [−11, −7]
  // does not contain −3 → χ = −3.
  const std::vector<std::int64_t> counters = {0, -9};
  EXPECT_EQ(chi_of(counters, 2), -3);
}

TEST(Chi, AdjacentIntervalsMerge) {
  // R = 1: [−1, 1] and [−4, −2] are adjacent (−2 follows −1): χ = −5.
  const std::vector<std::int64_t> counters = {0, -3};
  EXPECT_EQ(chi_of(counters, 1), -5);
}

TEST(Chi, DuplicateCountersHandled) {
  const std::vector<std::int64_t> counters = {0, 0, 0};
  EXPECT_EQ(chi_of(counters, 5), -6);
}

TEST(Chi, NegativeRangeRejected) {
  EXPECT_THROW((void)chi_of({}, -1), CheckError);
}

// Property sweep: for random competitor sets, χ is ≤ 0, outside every
// critical range, and maximal (χ = 0, or some interval forbids a value in
// (χ, 0] — by construction every value in (χ, 0] is forbidden).
class ChiProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChiProperty, PostconditionsHold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  std::vector<std::int64_t> scratch;  // reused across trials, as callers do
  for (int trial = 0; trial < 200; ++trial) {
    const auto k = 1 + rng.below(12);
    const std::int64_t range = static_cast<std::int64_t>(rng.below(50));
    std::vector<std::int64_t> counters;
    for (std::uint64_t i = 0; i < k; ++i) {
      counters.push_back(rng.range(-300, 300));
    }
    const std::int64_t x = chi(counters, range, scratch);
    std::vector<std::int64_t> sorted = counters;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(chi_sorted(sorted, range), x);

    EXPECT_LE(x, 0);
    auto forbidden = [&](std::int64_t v) {
      for (std::int64_t d : counters) {
        if (std::llabs(v - d) <= range) return true;
      }
      return false;
    };
    EXPECT_FALSE(forbidden(x)) << "chi landed inside a critical range";
    // Maximality: every value strictly between χ and 0 (inclusive) is
    // forbidden.
    for (std::int64_t v = x + 1; v <= 0; ++v) {
      EXPECT_TRUE(forbidden(v)) << "chi not maximal: " << v << " is free";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChiProperty, ::testing::Range(0, 8));

// Lemma 6 shape: with k counters and range R, χ ≥ −k·(2R+1) − 1 ≥
// −2kR − k − 1 (the paper states −2γζΔ log n − 1 style bounds).
TEST(Chi, LowerBoundMatchesLemma6Shape) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    const auto k = 1 + rng.below(8);
    const std::int64_t range = static_cast<std::int64_t>(rng.below(40));
    std::vector<std::int64_t> counters;
    for (std::uint64_t i = 0; i < k; ++i) {
      counters.push_back(rng.range(-200, 200));
    }
    const std::int64_t x = chi_of(counters, range);
    const std::int64_t bound =
        -static_cast<std::int64_t>(k) * (2 * range + 1) - 1;
    EXPECT_GE(x, bound);
  }
}

}  // namespace
}  // namespace urn::core
