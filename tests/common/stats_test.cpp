// OnlineStats: Welford moments plus the empty-accumulator contract — an
// extremum nobody observed is NaN, not a fabricated 0.0 (regression: the
// old min()/max() returned 0.0 on empty, which read as a real sample).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/stats.hpp"

namespace la {
namespace {

TEST(OnlineStats, EmptyExtremaAreNaN) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, SingleObservation) {
  OnlineStats s;
  s.add(-3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), -3.5);
  EXPECT_DOUBLE_EQ(s.min(), -3.5);
  EXPECT_DOUBLE_EQ(s.max(), -3.5);
  EXPECT_EQ(s.variance(), 0.0);  // n-1 denominator: undefined -> 0
}

TEST(OnlineStats, MomentsMatchClosedForm) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Sample variance of the classic dataset: sum((x-5)^2) = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(OnlineStats, ZeroObservationIsARealMinimum) {
  OnlineStats s;
  s.add(0.0);
  s.add(10.0);
  // 0.0 from data must be distinguishable from the empty case.
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_FALSE(std::isnan(s.min()));
}

TEST(OnlineStats, MergeMatchesSingleStream) {
  OnlineStats left, right, both;
  const double xs[] = {3.0, -1.0, 4.0, 1.0, 5.0, 9.0, 2.0};
  for (int i = 0; i < 7; ++i) {
    (i < 3 ? left : right).add(xs[i]);
    both.add(xs[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), both.count());
  EXPECT_NEAR(left.mean(), both.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), both.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.min(), both.min());
  EXPECT_DOUBLE_EQ(left.max(), both.max());
}

TEST(OnlineStats, MergeWithEmptySidesIsIdentity) {
  OnlineStats s, empty;
  s.add(2.0);
  s.add(6.0);
  s.merge(empty);  // no-op
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  OnlineStats fresh;
  fresh.merge(s);  // copies
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_DOUBLE_EQ(fresh.max(), 6.0);
}

TEST(OnlineStats, MergeOfTwoEmptiesStaysEmpty) {
  OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(std::isnan(a.min()));
  EXPECT_TRUE(std::isnan(a.max()));
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(OnlineStats, MergeOfSingleSamplesMatchesTwoAdds) {
  // n = 1 on both sides drives the Chan update through its smallest
  // meaningful case: m2 terms are zero, everything comes from delta.
  OnlineStats a, b, both;
  a.add(3.0);
  b.add(9.0);
  both.add(3.0);
  both.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  EXPECT_DOUBLE_EQ(a.variance(), both.variance());
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(OnlineStats, ExtremaSentinelsSurviveEmptyMerge) {
  // Merging two empties must leave the internal +/-inf sentinels intact:
  // the next real observation still becomes both extrema.
  OnlineStats a, b;
  a.merge(b);
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(OnlineStats, MergeSingleIntoEmptyThenContinue) {
  // merge() into an empty accumulator copies; subsequent add()s must
  // continue the stream as if it had been one accumulator all along.
  OnlineStats single, fresh, straight;
  single.add(4.0);
  fresh.merge(single);
  fresh.add(8.0);
  straight.add(4.0);
  straight.add(8.0);
  EXPECT_EQ(fresh.count(), 2u);
  EXPECT_DOUBLE_EQ(fresh.mean(), straight.mean());
  EXPECT_DOUBLE_EQ(fresh.variance(), straight.variance());
  EXPECT_DOUBLE_EQ(fresh.min(), 4.0);
  EXPECT_DOUBLE_EQ(fresh.max(), 8.0);
}

TEST(OnlineStats, SingleInfiniteObservationIsNotConfusedWithEmpty) {
  // A lone -inf sample equals the internal max sentinel; the NaN-on-empty
  // contract must be driven by the count, not by sentinel comparison.
  OnlineStats s;
  s.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.count(), 1u);
  EXPECT_FALSE(std::isnan(s.max()));
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(SafeRatio, ZeroDenominatorReadsAsZero) {
  EXPECT_EQ(safe_ratio(5, 0), 0.0);
  EXPECT_DOUBLE_EQ(safe_ratio(3, 4), 0.75);
}

TEST(NearestRankPercentile, PicksTheSmallestSampleCoveringQ) {
  EXPECT_EQ(nearest_rank_percentile({}, 0.5), 0.0);
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(v, 0.51), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(v, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(nearest_rank_percentile(v, 1.0), 4.0);
}

}  // namespace
}  // namespace la
