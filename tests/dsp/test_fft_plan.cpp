// FftPlan tests: the planned transform must be bit-identical to the
// textbook iterative radix-2 FFT (same butterfly order, same twiddle
// recurrence), must have the DFT's properties (DC, tones, Parseval,
// linearity, round trip), and the process-wide plan cache must hand out one
// shared immutable plan per size.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "milback/dsp/fft_plan.hpp"
#include "milback/util/rng.hpp"

namespace milback::dsp {
namespace {

// Textbook iterative radix-2 transform: per-stage trig + `w *= wlen`
// twiddle recurrence.
void reference_fft(std::vector<cplx>& a, int sign) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = double(sign) * 2.0 * std::numbers::pi / double(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (sign > 0) {
    for (auto& v : a) v /= double(n);
  }
}

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  return x;
}

class FftPlanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanSizes, ForwardBitExactVsReference) {
  const std::size_t n = GetParam();
  auto planned = random_signal(n, unsigned(n));
  auto reference = planned;
  fft_plan(n).forward(planned.data());
  reference_fft(reference, -1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(planned[i].real(), reference[i].real()) << "bin " << i;
    EXPECT_EQ(planned[i].imag(), reference[i].imag()) << "bin " << i;
  }
}

TEST_P(FftPlanSizes, InverseBitExactVsReference) {
  const std::size_t n = GetParam();
  auto planned = random_signal(n, unsigned(2 * n + 1));
  auto reference = planned;
  fft_plan(n).inverse(planned.data());
  reference_fft(reference, +1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(planned[i].real(), reference[i].real()) << "bin " << i;
    EXPECT_EQ(planned[i].imag(), reference[i].imag()) << "bin " << i;
  }
}

TEST_P(FftPlanSizes, RoundTrip) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, unsigned(n));
  auto y = x;
  fft_plan(n).forward(y);
  fft_plan(n).inverse(y);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i) max_err = std::max(max_err, std::abs(y[i] - x[i]));
  EXPECT_LT(max_err, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftPlanSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024, 4096));

TEST(FftPlan, InverseRoundTrip) {
  const std::size_t n = 512;
  const auto x = random_signal(n, 7);
  auto y = x;
  const auto& plan = fft_plan(n);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(FftPlan, DcSignal) {
  std::vector<cplx> x(8, cplx{1.0, 0.0});
  fft_plan(8).forward(x);
  EXPECT_NEAR(std::abs(x[0]), 8.0, 1e-9);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
}

TEST(FftPlan, SingleToneLandsInRightBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * std::numbers::pi * double(k0) * double(i) / double(n);
    x[i] = {std::cos(ph), std::sin(ph)};
  }
  fft_plan(n).forward(x);
  EXPECT_NEAR(std::abs(x[k0]), double(n), 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != k0) {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-8);
    }
  }
}

TEST(FftPlan, RealCosineSplitsIntoTwoBins) {
  const std::size_t n = 32;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = {std::cos(2.0 * std::numbers::pi * 3.0 * double(i) / double(n)), 0.0};
  }
  fft_plan(n).forward(x);
  EXPECT_NEAR(std::abs(x[3]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(x[n - 3]), n / 2.0, 1e-8);
}

TEST(FftPlan, ParsevalHolds) {
  auto x = random_signal(128, 2);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  fft_plan(x.size()).forward(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / double(x.size()), time_energy, 1e-6 * time_energy);
}

TEST(FftPlan, LinearityProperty) {
  auto a = random_signal(64, 3);
  auto b = random_signal(64, 4);
  std::vector<cplx> sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = a[i] + 2.0 * b[i];
  const auto& plan = fft_plan(64);
  plan.forward(a);
  plan.forward(b);
  plan.forward(sum);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(std::abs(sum[k] - (a[k] + 2.0 * b[k])), 0.0, 1e-8);
  }
}

TEST(FftPlan, CacheReturnsSharedInstance) {
  const FftPlan& a = fft_plan(1024);
  const FftPlan& b = fft_plan(1024);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 1024u);
  EXPECT_NE(&a, &fft_plan(512));
}

TEST(FftPlan, RejectsNonPow2) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(96), std::invalid_argument);
}

// The cache enforces the same contract: an in-place transform of a
// 3-sample buffer has no plan.
TEST(Fft, RejectsNonPow2Inplace) {
  std::vector<cplx> x(3, cplx{1.0, 0.0});
  EXPECT_THROW(fft_plan(x.size()).forward(x), std::invalid_argument);
}

// Round trip through the cached plan's vector overloads (the checked path),
// at a different size and seed than FftPlan.InverseRoundTrip.
TEST(Fft, InverseRoundTrip) {
  auto x = random_signal(256, 1);
  const auto y0 = x;
  fft_plan(x.size()).forward(x);
  fft_plan(x.size()).inverse(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), y0[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), y0[i].imag(), 1e-9);
  }
}

TEST(FftPlan, CheckedOverloadRejectsSizeMismatch) {
  std::vector<cplx> x(8, cplx{1.0, 0.0});
  EXPECT_THROW(fft_plan(16).forward(x), std::invalid_argument);
  EXPECT_THROW(fft_plan(16).inverse(x), std::invalid_argument);
}

TEST(FftPlan, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(FftPlan, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(96));
}

TEST(FftPlan, MagnitudeSpectrum) {
  const auto m = magnitude_spectrum({{3.0, 4.0}, {0.0, -2.0}});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 5.0);
  EXPECT_DOUBLE_EQ(m[1], 2.0);
}

}  // namespace
}  // namespace milback::dsp
