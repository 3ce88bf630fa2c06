// Statistics helper tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "milback/util/rng.hpp"
#include "milback/util/stats.hpp"

namespace milback {
namespace {

TEST(Stats, MeanBasics) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceUnbiased) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known dataset: population variance 4, sample variance 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceDegenerate) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
}

TEST(Stats, Rms) {
  std::vector<double> xs{3.0, -4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(Stats, MinMax) {
  std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 46.0);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> xs{50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(median(xs), 30.0);
}

// Interpolated percentile of a fully sorted copy: the reference that
// `percentile`'s selection must reproduce bit for bit.
double sorted_reference(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * double(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - double(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

TEST(Stats, PercentileSelectionMatchesSortedReference) {
  // n = 1, 2, odd and even sizes, with distinct and with heavily
  // duplicated values, over probes that land on and between ranks.
  const double probes[] = {0.0, 0.1, 1.0, 10.0, 25.0, 33.3, 50.0, 66.7, 75.0, 90.0, 99.0, 99.9, 100.0};
  Rng rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 10u, 101u, 1000u}) {
    for (const bool duplicates : {false, true}) {
      std::vector<double> xs(n);
      for (auto& x : xs) {
        x = duplicates ? double(rng.uniform_int(-2, 2)) : rng.uniform(-5.0, 5.0);
      }
      for (const double p : probes) {
        const double got = percentile(xs, p);
        const double want = sorted_reference(xs, p);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "n " << n << " duplicates " << duplicates << " p " << p << ": " << got
            << " vs " << want;
      }
      EXPECT_EQ(median(xs), sorted_reference(xs, 50.0)) << "n " << n;
    }
  }
}

TEST(Stats, PercentileInPlaceTakesProbesInTurnFromOneBuffer) {
  // Each selection leaves the buffer in a new order; the next probe must
  // still read the sorted reference's bits.
  const double probes[] = {50.0, 95.0, 0.0, 33.3, 100.0, 50.0, 99.9, 10.0};
  Rng rng(23);
  for (const std::size_t n : {1u, 2u, 5u, 64u, 999u}) {
    for (const bool duplicates : {false, true}) {
      std::vector<double> xs(n);
      for (auto& x : xs) {
        x = duplicates ? double(rng.uniform_int(-3, 3)) : rng.uniform(0.0, 2.0);
      }
      std::vector<double> buffer = xs;
      for (const double p : probes) {
        const double got = percentile_in_place(buffer, p);
        const double want = sorted_reference(xs, p);
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
            << "n " << n << " duplicates " << duplicates << " p " << p;
      }
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(percentile_in_place(empty, 50.0), 0.0);
}

TEST(Stats, PercentilesMatchesSingleCalls) {
  std::vector<double> xs{50.0, 10.0, 40.0, 20.0, 30.0};
  const auto ps = percentiles(xs, {0.0, 25.0, 50.0, 90.0, 100.0});
  ASSERT_EQ(ps.size(), 5u);
  EXPECT_DOUBLE_EQ(ps[0], percentile(xs, 0.0));
  EXPECT_DOUBLE_EQ(ps[1], percentile(xs, 25.0));
  EXPECT_DOUBLE_EQ(ps[2], percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(ps[3], percentile(xs, 90.0));
  EXPECT_DOUBLE_EQ(ps[4], percentile(xs, 100.0));
}

TEST(Stats, PercentilesHandlesUnorderedProbesAndEmptyInput) {
  std::vector<double> xs{10.0, 20.0, 30.0};
  // Probe order is preserved in the output, not sorted.
  const auto ps = percentiles(xs, {95.0, 5.0});
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_GT(ps[0], ps[1]);
  const auto empty = percentiles(std::vector<double>{}, {50.0, 95.0});
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_DOUBLE_EQ(empty[0], 0.0);
  EXPECT_DOUBLE_EQ(empty[1], 0.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  std::vector<double> xs{3.0, 1.0, 2.0};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_NEAR(cdf[0].probability, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].probability, cdf[i - 1].probability);
  }
}

TEST(Stats, RunningMatchesBatch) {
  std::vector<double> xs{1.0, -2.0, 3.5, 0.25, 9.0, -4.0};
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -4.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Stats, RunningEmpty) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

}  // namespace
}  // namespace milback
