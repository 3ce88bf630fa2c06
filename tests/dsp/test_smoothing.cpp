// Smoother tests: the envelope detector's one-pole IIR and the orientation
// profiler's moving average.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/smoothing.hpp"

namespace milback::dsp {
namespace {

TEST(OnePole, StepResponseConverges) {
  OnePoleLowpass lpf(10.0);
  double y = 0.0;
  for (int i = 0; i < 200; ++i) y = lpf.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(OnePole, TimeConstantAt63Percent) {
  OnePoleLowpass lpf(50.0);
  double y = 0.0;
  for (int i = 0; i < 50; ++i) y = lpf.step(1.0);
  EXPECT_NEAR(y, 1.0 - std::exp(-1.0), 0.02);
}

TEST(OnePole, PassThroughWhenTauZero) {
  OnePoleLowpass lpf(0.0);
  EXPECT_DOUBLE_EQ(lpf.step(7.0), 7.0);
  EXPECT_DOUBLE_EQ(lpf.step(-2.0), -2.0);
}

TEST(OnePole, ResetClearsState) {
  OnePoleLowpass lpf(5.0);
  lpf.step(10.0);
  lpf.reset();
  EXPECT_NEAR(lpf.step(0.0), 0.0, 1e-12);
}

TEST(OnePole, ProcessIsStateful) {
  OnePoleLowpass lpf(5.0);
  const auto y = lpf.process(std::vector<double>(100, 2.0));
  EXPECT_LT(y.front(), 1.0);
  EXPECT_NEAR(y.back(), 2.0, 1e-6);
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
