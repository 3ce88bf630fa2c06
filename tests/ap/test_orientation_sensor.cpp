// AP-side orientation sensor tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/ap/orientation_sensor.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/stats.hpp"

namespace milback::ap {
namespace {

channel::BackscatterChannel cluttered_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

double mean_error_at(double orientation, std::uint64_t base_seed, int trials = 15) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  Rng master(base_seed);
  std::vector<double> errs;
  for (int t = 0; t < trials; ++t) {
    auto rng = master.fork(std::uint64_t(t));
    const channel::NodePose pose{2.0, 0.0, orientation};
    const auto r = sensor.estimate(chan, pose, rng);
    if (r.valid) errs.push_back(std::abs(r.orientation_deg - orientation));
  }
  EXPECT_GE(errs.size(), std::size_t(trials) - 2u);
  return milback::mean(errs);
}

TEST(ApOrientation, AccurateAwayFromMirrorRegion) {
  // Paper Fig 13b: mean error < 1.5 deg for most orientations.
  for (double o : {-20.0, -10.0, 10.0, 20.0}) {
    EXPECT_LT(mean_error_at(o, 42), 1.6) << "orientation " << o;
  }
}

TEST(ApOrientation, MirrorCollisionDegradesEstimates) {
  // Paper Fig 13b: errors grow in the -6..-2 degree region but the system
  // still works (< ~4 deg mean in our calibration).
  const double bump = mean_error_at(-4.0, 43, 25);
  const double baseline = mean_error_at(15.0, 43, 25);
  EXPECT_GT(bump, baseline);
}

TEST(ApOrientation, PeakFrequencyConsistentWithScanLaw) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  Rng rng(44);
  const channel::NodePose pose{2.0, 0.0, 18.0};
  const auto r = sensor.estimate(chan, pose, rng);
  ASSERT_TRUE(r.valid);
  const auto back = chan.fsa().beam_angle_deg(antenna::FsaPort::kA, r.f_peak_hz);
  ASSERT_TRUE(back.has_value());
  EXPECT_NEAR(*back, r.orientation_deg, 1e-9);
}

TEST(ApOrientation, WorksAcrossDistance) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  Rng master(45);
  for (double d : {1.0, 3.0, 5.0}) {
    auto rng = master.fork(std::uint64_t(d * 10));
    const channel::NodePose pose{d, 0.0, 12.0};
    const auto r = sensor.estimate(chan, pose, rng);
    ASSERT_TRUE(r.valid) << "distance " << d;
    EXPECT_NEAR(r.orientation_deg, 12.0, 3.0) << "distance " << d;
  }
}

TEST(ApOrientation, DeterministicGivenSeed) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  const channel::NodePose pose{2.0, 0.0, 8.0};
  Rng r1(77), r2(77);
  const auto a = sensor.estimate(chan, pose, r1);
  const auto b = sensor.estimate(chan, pose, r2);
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.orientation_deg, b.orientation_deg);
}

TEST(ApOrientationSensor, PoseEstimateIsSynthesisThenBurstProcessing) {
  // The standalone measurement is a Field-2 burst of its own followed by the
  // same processing a packet runs on its localization burst: same draws in
  // the same order, bit-identical results.
  const auto chan = cluttered_channel();
  const LocalizerConfig radar;
  const ApOrientationSensor sensor(radar);
  const Localizer synth(radar);
  std::uint64_t seed = 50;
  for (const double o : {-16.0, -4.0, 0.0, 9.0, 18.0}) {
    for (const double d : {1.5, 4.0}) {
      const channel::NodePose pose{d, 6.0, o};
      Rng rng(seed++);
      Rng replay = rng;
      const auto r = sensor.estimate(chan, pose, rng);

      const double steered =
          pose.azimuth_deg + replay.gaussian(0.0, chan.config().steering_error_sigma_deg);
      const double slope_scale = 1.0 + replay.gaussian(0.0, radar.slope_error_rms);
      std::vector<rf::SwitchState> states(radar.n_chirps);
      for (std::size_t i = 0; i < states.size(); ++i) {
        states[i] = i % 2 == 0 ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
      }
      const auto burst =
          synth.synthesize_burst(chan, pose, states, slope_scale, steered, replay);
      const auto e = sensor.estimate(chan, burst.rx0, replay);

      EXPECT_EQ(r.valid, e.valid) << "orientation " << o << " distance " << d;
      EXPECT_EQ(r.orientation_deg, e.orientation_deg) << "orientation " << o;
      EXPECT_EQ(r.f_peak_hz, e.f_peak_hz) << "orientation " << o;
      EXPECT_EQ(rng.engine()(), replay.engine()()) << "orientation " << o;
    }
  }
}

TEST(ApOrientationSensor, PoseEstimateMatchesFullBurstReference) {
  // The spec: a full two-antenna burst, every RX0 chirp range-FFT'd and
  // background-subtracted, the profile read off the first difference. The
  // sensor synthesizes no RX1 beats and transforms one chirp pair, and must
  // still match it bit for bit, the mirror-collision region included.
  const auto chan = cluttered_channel();
  const LocalizerConfig radar;
  const ApOrientationSensor sensor(radar);
  LocalizerConfig rect = radar;
  rect.fft.window = dsp::WindowType::kRectangular;
  const Localizer synth(rect);
  const OrientationSensorConfig& oc = sensor.config();
  std::uint64_t seed = 90;
  for (const double o : {-22.0, -6.0, -5.0, -4.0, -3.0, -2.0, 0.0, 11.0, 24.0}) {
    for (const double d : {1.2, 3.5}) {
      const channel::NodePose pose{d, -7.0, o};
      Rng rng(seed++);
      Rng replay = rng;
      const auto r = sensor.estimate(chan, pose, rng);

      ApOrientationResult e;
      const double steered =
          pose.azimuth_deg + replay.gaussian(0.0, chan.config().steering_error_sigma_deg);
      const double slope_scale = 1.0 + replay.gaussian(0.0, rect.slope_error_rms);
      std::vector<rf::SwitchState> states(rect.n_chirps);
      for (std::size_t i = 0; i < states.size(); ++i) {
        states[i] = i % 2 == 0 ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
      }
      const auto burst =
          synth.synthesize_burst(chan, pose, states, slope_scale, steered, replay);
      std::vector<radar::RangeSpectrum> spectra;
      for (const auto& beat : burst.rx0) {
        spectra.push_back(
            radar::range_fft(beat, rect.beat_sample_rate_hz, rect.chirp, rect.fft));
      }
      const auto sub = radar::background_subtract(spectra);
      const auto profile = radar::reflected_power_profile(
          sub.first_difference, rect.beat_sample_rate_hz, rect.chirp, oc.profile);
      auto f_peak = profile.peak_frequency_hz();
      if (f_peak) {
        *f_peak += replay.gaussian(0.0, oc.frequency_jitter_hz);
        if (const auto angle = chan.fsa().beam_angle_deg(antenna::FsaPort::kA, *f_peak)) {
          e.valid = true;
          e.f_peak_hz = *f_peak;
          e.orientation_deg = *angle;
        }
      }

      EXPECT_EQ(r.valid, e.valid) << "orientation " << o << " distance " << d;
      EXPECT_EQ(r.orientation_deg, e.orientation_deg) << "orientation " << o;
      EXPECT_EQ(r.f_peak_hz, e.f_peak_hz) << "orientation " << o;
      EXPECT_EQ(rng.engine()(), replay.engine()()) << "orientation " << o;
    }
  }
}

TEST(ApOrientationSensor, BurstEstimateRejectsSingleChirp) {
  const auto chan = cluttered_channel();
  const ApOrientationSensor sensor;
  Rng rng(60);
  const ChirpBeats one_chirp(1, std::vector<radar::cplx>(16));
  EXPECT_THROW((void)sensor.estimate(chan, one_chirp, rng), ContractViolation);
}

}  // namespace
}  // namespace milback::ap
