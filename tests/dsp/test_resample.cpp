// Rate conversion tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/resample.hpp"
#include "milback/util/units.hpp"
#include "support/tone_power.hpp"

namespace milback::dsp {
namespace {

TEST(Downsample, KeepsEveryNth) {
  const auto y = downsample({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, 3);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 6.0);
}

TEST(Downsample, FactorOneCopies) {
  const std::vector<double> x{1.0, 2.0};
  EXPECT_EQ(downsample(x, 1), x);
}

TEST(Downsample, ZeroFactorThrows) {
  EXPECT_THROW(downsample({1.0}, 0), std::invalid_argument);
  EXPECT_THROW(decimate({1.0}, 0), std::invalid_argument);
}

TEST(Decimate, AntiAliasRemovesHighFrequency) {
  // 0.4-cycles/sample tone would alias after /4 decimation; the prefilter
  // must kill it while keeping a slow tone.
  const std::size_t n = 4096;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * kPi * 0.01 * double(i)) + std::cos(2.0 * kPi * 0.4 * double(i));
  }
  const auto y = decimate(x, 4);
  // Output rate 1: slow tone now at 0.04 cycles/sample, alias would land at 0.4.
  EXPECT_NEAR(tone_power(y, 0.04, 1.0), 1.0, 0.1);
  EXPECT_LT(tone_power(y, 0.4, 1.0), 0.02);
}

TEST(ResampleLinear, EndpointsPreserved) {
  const auto y = resample_linear({1.0, 2.0, 4.0}, 5);
  ASSERT_EQ(y.size(), 5u);
  EXPECT_DOUBLE_EQ(y.front(), 1.0);
  EXPECT_DOUBLE_EQ(y.back(), 4.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);  // midpoint of the span
}

TEST(ResampleLinear, Degenerate) {
  EXPECT_TRUE(resample_linear({}, 4).empty());
  EXPECT_TRUE(resample_linear({1.0}, 0).empty());
  const auto y = resample_linear({3.0}, 4);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(MovingAverage, SmoothsConstantExactly) {
  const auto y = moving_average(std::vector<double>(10, 2.5), 3);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(MovingAverage, CentersWindow) {
  const auto y = moving_average({0.0, 0.0, 9.0, 0.0, 0.0}, 3);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(MovingAverage, ZeroWindowThrows) {
  EXPECT_THROW(moving_average({1.0}, 0), std::invalid_argument);
}

TEST(MovingAverage, PreservesMeanApproximately) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i % 7);
  const auto y = moving_average(x, 5);
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  EXPECT_NEAR(my / mx, 1.0, 0.02);
}

}  // namespace
}  // namespace milback::dsp
