// Dechirped beat-signal synthesis tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/peak.hpp"
#include "milback/radar/beat_synthesis.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {
namespace {

Rng quiet_rng() { return Rng(123); }

TEST(BeatSynthesis, SamplesPerChirp) {
  EXPECT_EQ(samples_per_chirp(field2_chirp(), 50e6), 900u);
}

TEST(BeatSynthesis, SamplesPerChirpRoundsExactIntegerProduct) {
  // 4.9 us * 50 MHz is exactly 245 samples, but the double product evaluates
  // to 244.99999999999997 -- truncation used to lose the last sample.
  ChirpConfig chirp = field2_chirp();
  chirp.duration_s = 4.9e-6;
  EXPECT_EQ(samples_per_chirp(chirp, 50e6), 245u);
}

TEST(BeatSynthesis, SingleReflectorProducesExpectedBeatTone) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  const double range = 4.0;
  const double tau = 2.0 * range / kSpeedOfLight;

  PathContribution p;
  p.delay_s = tau;
  p.amplitude = 1.0;
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);

  auto spec = beat;
  spec.resize(dsp::next_pow2(spec.size()));
  dsp::fft_plan(spec.size()).forward(spec);
  const auto mags = dsp::magnitude_spectrum(spec);
  std::vector<double> positive(mags.begin(), mags.begin() + std::ptrdiff_t(mags.size() / 2));
  const auto peak = dsp::max_peak(positive);
  const double f_est = peak.index * fs / double(mags.size());
  EXPECT_NEAR(f_est, chirp.beat_frequency_hz(tau), fs / double(mags.size())) << "bin error";
}

TEST(BeatSynthesis, AmplitudePreserved) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  PathContribution p;
  p.delay_s = 100e-9;
  p.amplitude = 0.37;
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);
  for (const auto& v : beat) EXPECT_NEAR(std::abs(v), 0.37, 1e-9);
}

TEST(BeatSynthesis, PathsSuperpose) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = 512;
  PathContribution p1{.delay_s = 50e-9, .amplitude = 1.0};
  PathContribution p2{.delay_s = 90e-9, .amplitude = 0.5};
  auto rng = quiet_rng();
  const auto both = synthesize_beat({p1, p2}, chirp, fs, n, 0.0, rng);
  auto rng2 = quiet_rng();
  const auto only1 = synthesize_beat({p1}, chirp, fs, n, 0.0, rng2);
  auto rng3 = quiet_rng();
  const auto only2 = synthesize_beat({p2}, chirp, fs, n, 0.0, rng3);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(both[i] - only1[i] - only2[i]), 0.0, 1e-12);
  }
}

TEST(BeatSynthesis, ExtraPhaseRotates) {
  const auto chirp = field2_chirp();
  PathContribution p{.delay_s = 50e-9, .amplitude = 1.0};
  auto rng = quiet_rng();
  const auto ref = synthesize_beat({p}, chirp, 50e6, 64, 0.0, rng);
  p.extra_phase_rad = kPi / 2.0;
  auto rng2 = quiet_rng();
  const auto rot = synthesize_beat({p}, chirp, 50e6, 64, 0.0, rng2);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(std::arg(rot[i] * std::conj(ref[i])), kPi / 2.0, 1e-9);
  }
}

TEST(BeatSynthesis, EnvelopeScalesSamples) {
  const auto chirp = field2_chirp();
  const std::size_t n = 100;
  PathContribution p{.delay_s = 50e-9, .amplitude = 2.0};
  p.envelope.assign(n, 0.0);
  p.envelope[10] = 0.5;
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, 50e6, n, 0.0, rng);
  EXPECT_NEAR(std::abs(beat[10]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(beat[11]), 0.0, 1e-12);
}

TEST(BeatSynthesis, EnvelopeLengthMismatchThrows) {
  PathContribution p{.delay_s = 50e-9, .amplitude = 1.0};
  p.envelope.assign(10, 1.0);
  auto rng = quiet_rng();
  EXPECT_THROW(synthesize_beat({p}, field2_chirp(), 50e6, 20, 0.0, rng),
               std::invalid_argument);
}

TEST(BeatSynthesis, NoiseAddsPower) {
  auto rng = quiet_rng();
  const auto noisy = synthesize_beat({}, field2_chirp(), 50e6, 4096, 1e-6, rng);
  double acc = 0.0;
  for (const auto& v : noisy) acc += std::norm(v);
  EXPECT_NEAR(acc / double(noisy.size()), 1e-6, 2e-7);
}

TEST(BeatSynthesis, TriangularDownLegNegatesBeat) {
  const auto chirp = field1_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  PathContribution p{.delay_s = 40e-9, .amplitude = 1.0};
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);
  // Instantaneous frequency on the up-leg positive, down-leg negative:
  // compare short-window phase slopes.
  auto slope_at = [&](std::size_t start) {
    double acc = 0.0;
    for (std::size_t i = start; i < start + 32; ++i) {
      acc += std::arg(beat[i + 1] * std::conj(beat[i]));
    }
    return acc / 32.0;
  };
  EXPECT_GT(slope_at(100), 0.0);
  EXPECT_LT(slope_at(n - 200), 0.0);
}

TEST(BeatSynthesis, DechirpPhaseFormula) {
  const auto chirp = field2_chirp();
  const double tau = 30e-9;
  const double expected = 2.0 * kPi * chirp.start_frequency_hz * tau -
                          kPi * chirp.slope_hz_per_s() * tau * tau;
  EXPECT_NEAR(dechirp_phase_rad(chirp, tau), expected, 1e-6);
}

}  // namespace
}  // namespace milback::radar
