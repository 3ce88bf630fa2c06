// FIR design and filtering tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/fir.hpp"
#include "milback/util/units.hpp"
#include "support/tone_power.hpp"

namespace milback::dsp {
namespace {

std::vector<double> tone(double f, double fs, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::cos(2.0 * kPi * f * double(i) / fs);
  return x;
}

TEST(FirDesign, LowpassUnityDcGain) {
  const auto h = design_lowpass(100.0, 1000.0, 51);
  double sum = 0.0;
  for (const double v : h) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(FirDesign, RejectsBadTaps) {
  EXPECT_THROW(design_lowpass(10.0, 100.0, 2), std::invalid_argument);
  EXPECT_THROW(design_lowpass(10.0, 100.0, 4), std::invalid_argument);
  EXPECT_THROW(design_lowpass(60.0, 100.0, 5), std::invalid_argument);  // fc >= fs/2
  EXPECT_THROW(design_lowpass(-1.0, 100.0, 5), std::invalid_argument);
}

TEST(FirDesign, LowpassPassesLowRejectsHigh) {
  const double fs = 1000.0;
  const auto h = design_lowpass(100.0, fs, 101);
  const auto low = filter_same(h, tone(20.0, fs, 2048));
  const auto high = filter_same(h, tone(400.0, fs, 2048));
  EXPECT_NEAR(tone_power(low, 20.0, fs), 1.0, 0.05);
  EXPECT_LT(tone_power(high, 400.0, fs), 1e-4);
}

TEST(FirDesign, HighpassPassesHighRejectsLow) {
  const double fs = 1000.0;
  const auto h = design_highpass(100.0, fs, 101);
  const auto low = filter_same(h, tone(20.0, fs, 2048));
  const auto high = filter_same(h, tone(400.0, fs, 2048));
  EXPECT_LT(tone_power(low, 20.0, fs), 1e-4);
  EXPECT_NEAR(tone_power(high, 400.0, fs), 1.0, 0.05);
}

TEST(FirDesign, BandpassSelectsBand) {
  const double fs = 1000.0;
  const auto h = design_bandpass(100.0, 300.0, fs, 151);
  EXPECT_LT(tone_power(filter_same(h, tone(20.0, fs, 4096)), 20.0, fs), 1e-3);
  EXPECT_NEAR(tone_power(filter_same(h, tone(200.0, fs, 4096)), 200.0, fs), 1.0, 0.05);
  EXPECT_LT(tone_power(filter_same(h, tone(450.0, fs, 4096)), 450.0, fs), 1e-3);
}

TEST(FirDesign, BandpassRejectsBadEdges) {
  EXPECT_THROW(design_bandpass(300.0, 100.0, 1000.0, 51), std::invalid_argument);
  EXPECT_THROW(design_bandpass(0.0, 100.0, 1000.0, 51), std::invalid_argument);
  EXPECT_THROW(design_bandpass(100.0, 600.0, 1000.0, 51), std::invalid_argument);
}

TEST(FilterSame, PreservesLengthAndAlignment) {
  const auto h = design_lowpass(200.0, 1000.0, 21);
  std::vector<double> impulse(64, 0.0);
  impulse[32] = 1.0;
  const auto y = filter_same(h, impulse);
  ASSERT_EQ(y.size(), impulse.size());
  // Group delay removed: response peak stays at sample 32.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_EQ(peak, 32u);
}

TEST(FilterSame, ComplexVariantMatchesRealParts) {
  const auto h = design_lowpass(200.0, 1000.0, 21);
  std::vector<double> xr(128);
  for (std::size_t i = 0; i < xr.size(); ++i) xr[i] = std::sin(0.1 * double(i));
  std::vector<std::complex<double>> xc(xr.size());
  for (std::size_t i = 0; i < xr.size(); ++i) xc[i] = {xr[i], -xr[i]};
  const auto yr = filter_same(h, xr);
  const auto yc = filter_same(h, xc);
  for (std::size_t i = 0; i < yr.size(); ++i) {
    EXPECT_NEAR(yc[i].real(), yr[i], 1e-12);
    EXPECT_NEAR(yc[i].imag(), -yr[i], 1e-12);
  }
}

TEST(FilterSame, EmptyKernelThrows) {
  EXPECT_THROW(filter_same({}, std::vector<double>{1.0}), std::invalid_argument);
}

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

}  // namespace
}  // namespace milback::dsp
