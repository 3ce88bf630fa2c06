// Tests of the Goertzel single-bin DFT probes in tests/support, which the
// FIR and resampler tests measure tone power with.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/fft.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"
#include "support/tone_power.hpp"

namespace milback::dsp {
namespace {

TEST(Goertzel, MatchesFftBin) {
  const std::size_t n = 64;
  const double fs = 6400.0;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * kPi * 300.0 * double(i) / fs) +
           0.5 * std::sin(2.0 * kPi * 700.0 * double(i) / fs);
  }
  const auto spec = fft_real(x);
  // Bin 3 = 300 Hz, bin 7 = 700 Hz at fs/n = 100 Hz spacing.
  const auto g3 = goertzel(x, 300.0, fs);
  const auto g7 = goertzel(x, 700.0, fs);
  EXPECT_NEAR(std::abs(g3), std::abs(spec[3]), 1e-6);
  EXPECT_NEAR(std::abs(g7), std::abs(spec[7]), 1e-6);
}

TEST(Goertzel, TonePowerUnitCosine) {
  const double fs = 10000.0;
  std::vector<double> x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(2.0 * kPi * 500.0 * double(i) / fs);
  }
  EXPECT_NEAR(tone_power(x, 500.0, fs), 1.0, 1e-6);
}

TEST(Goertzel, TonePowerScalesWithAmplitudeSquared) {
  const double fs = 10000.0;
  std::vector<double> x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 3.0 * std::cos(2.0 * kPi * 500.0 * double(i) / fs);
  }
  EXPECT_NEAR(tone_power(x, 500.0, fs), 9.0, 1e-5);
}

TEST(Goertzel, RejectsAbsentTone) {
  const double fs = 10000.0;
  std::vector<double> x(1000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::cos(2.0 * kPi * 500.0 * double(i) / fs);
  }
  EXPECT_LT(tone_power(x, 2100.0, fs), 1e-5);
}

TEST(Goertzel, EmptyInput) {
  EXPECT_NEAR(std::abs(goertzel(std::vector<double>{}, 100.0, 1000.0)), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(tone_power(std::vector<double>{}, 100.0, 1000.0), 0.0);
}

TEST(Goertzel, ComplexOverloadMatchesTrigCorrelation) {
  // The complex overload now generates exp(-j omega n) by phasor rotation;
  // it must track the per-sample-trig correlation it replaced to <= 1e-9
  // relative over the longest chirp the simulator produces (2250 samples).
  const double fs = 50e6;
  const double f = 1.7e6;
  Rng rng(17);
  std::vector<std::complex<double>> x(2250);
  for (auto& v : x) v = rng.complex_gaussian(1.0);

  const double omega = 2.0 * kPi * f / fs;
  std::complex<double> reference{0.0, 0.0};
  for (std::size_t n = 0; n < x.size(); ++n) {
    const double ph = -omega * double(n);
    reference += x[n] * std::complex<double>{std::cos(ph), std::sin(ph)};
  }
  const auto fast = goertzel(x, f, fs);
  EXPECT_LT(std::abs(fast - reference), 1e-9 * std::abs(reference));
}

TEST(Goertzel, ComplexInputDetectsNegativeFrequency) {
  const double fs = 1000.0;
  std::vector<std::complex<double>> x(500);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ph = -2.0 * kPi * 100.0 * double(i) / fs;
    x[i] = {std::cos(ph), std::sin(ph)};
  }
  const auto pos = goertzel(x, 100.0, fs);
  const auto neg = goertzel(x, -100.0, fs);
  EXPECT_GT(std::abs(neg), 100.0 * std::abs(pos));
}

}  // namespace
}  // namespace milback::dsp
