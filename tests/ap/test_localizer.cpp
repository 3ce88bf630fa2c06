// Localizer pipeline tests (waveform level).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "milback/ap/localizer.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback::ap {
namespace {

channel::BackscatterChannel cluttered_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

TEST(Localizer, DetectsNodeInAnechoicChannel) {
  const auto chan =
      channel::BackscatterChannel::make_default(channel::Environment::anechoic());
  Localizer loc;
  Rng rng(2);
  const channel::NodePose pose{3.0, 0.0, 10.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 3.0, 0.15);
}

TEST(Localizer, DetectsNodeThroughClutter) {
  const auto chan = cluttered_channel();
  Localizer loc;
  Rng rng(3);
  const channel::NodePose pose{4.0, 5.0, 10.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 4.0, 0.2);
  EXPECT_GT(r.detection_snr_db, 6.0);
}

TEST(Localizer, AngleWithinPaperEnvelope) {
  const auto chan = cluttered_channel();
  Localizer loc;
  std::vector<double> errs;
  Rng master(4);
  for (int t = 0; t < 30; ++t) {
    auto rng = master.fork(std::uint64_t(t));
    const double az = -20.0 + 4.0 * (t % 11);
    const channel::NodePose pose{2.0, az, 10.0};
    const auto r = loc.localize(chan, pose, rng);
    ASSERT_TRUE(r.detected);
    ASSERT_TRUE(r.aoa_offset_deg.has_value());
    errs.push_back(std::abs(r.angle_deg - az));
  }
  // Paper Fig 12b: median 1.1 deg, 90th 2.5 deg. Allow simulation slack.
  EXPECT_LT(milback::median(errs), 2.2);
  EXPECT_LT(milback::percentile(errs, 90), 5.0);
}

TEST(Localizer, RangeErrorGrowsWithDistance) {
  const auto chan = cluttered_channel();
  Localizer loc;
  Rng master(5);
  auto mean_err = [&](double d) {
    std::vector<double> errs;
    for (int t = 0; t < 15; ++t) {
      auto rng = master.fork(std::uint64_t(1000 + t) * 31 + std::uint64_t(d));
      const channel::NodePose pose{d, 0.0, 10.0};
      const auto r = loc.localize(chan, pose, rng);
      if (r.detected) errs.push_back(std::abs(r.range_m - d));
    }
    EXPECT_GE(errs.size(), 12u) << "too many misses at " << d;
    return milback::mean(errs);
  };
  const double near_err = mean_err(1.0);
  const double far_err = mean_err(8.0);
  EXPECT_GT(far_err, near_err);
  // Paper Fig 12a bounds: < 5 cm at 5 m, < 12 cm at 8 m (mean).
  EXPECT_LT(mean_err(5.0), 0.07);
  EXPECT_LT(far_err, 0.15);
}

TEST(Localizer, SteeringErrorReflectedInOutput) {
  const auto chan = cluttered_channel();
  Localizer loc;
  Rng rng(6);
  const channel::NodePose pose{2.0, 10.0, 10.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  // The steered azimuth should be near (but generally not equal to) truth.
  EXPECT_NEAR(r.steered_azimuth_deg, 10.0, 4.0);
  EXPECT_NEAR(r.angle_deg, 10.0, 4.0);
}

TEST(Localizer, BurstShapeMatchesConfig) {
  const auto chan = cluttered_channel();
  LocalizerConfig cfg;
  Localizer loc{cfg};
  Rng rng(7);
  std::vector<rf::SwitchState> states(cfg.n_chirps, rf::SwitchState::kReflect);
  const auto burst = loc.synthesize_burst(chan, {2.0, 0.0, 10.0}, states, 1.0, 0.0, rng);
  EXPECT_EQ(burst.rx0.size(), cfg.n_chirps);
  EXPECT_EQ(burst.rx1.size(), cfg.n_chirps);
  const auto n = radar::samples_per_chirp(cfg.chirp, cfg.beat_sample_rate_hz);
  EXPECT_EQ(burst.rx0.front().size(), n);
}

TEST(Localizer, UnmodulatedNodeInvisible) {
  // If the node never toggles, background subtraction removes it: detection
  // should fail (or find something unrelated far from the node).
  const auto chan =
      channel::BackscatterChannel::make_default(channel::Environment::anechoic());
  LocalizerConfig cfg;
  Localizer loc{cfg};
  Rng rng(8);
  const channel::NodePose pose{3.0, 0.0, 10.0};
  std::vector<rf::SwitchState> constant(cfg.n_chirps, rf::SwitchState::kReflect);
  const auto burst = loc.synthesize_burst(chan, pose, constant, 1.0, 0.0, rng);
  std::vector<radar::RangeSpectrum> spectra;
  for (const auto& beat : burst.rx0) {
    spectra.push_back(radar::range_fft(beat, cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
  }
  const auto sub = radar::background_subtract(spectra);
  const auto det = radar::estimate_range(sub, spectra.front(), cfg.range);
  if (det) {
    EXPECT_GT(std::abs(det->range_m - 3.0), 0.5)
        << "static node should not survive subtraction";
  }
}

TEST(Localizer, DeterministicGivenSeed) {
  const auto chan = cluttered_channel();
  Localizer loc;
  const channel::NodePose pose{3.0, 0.0, 10.0};
  Rng r1(99), r2(99);
  const auto a = loc.localize(chan, pose, r1);
  const auto b = loc.localize(chan, pose, r2);
  ASSERT_EQ(a.detected, b.detected);
  EXPECT_DOUBLE_EQ(a.range_m, b.range_m);
  EXPECT_DOUBLE_EQ(a.angle_deg, b.angle_deg);
}

std::vector<rf::SwitchState> field2_states(std::size_t n) {
  std::vector<rf::SwitchState> states(n);
  for (std::size_t i = 0; i < n; ++i) {
    states[i] = i % 2 == 0 ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
  }
  return states;
}

TEST(Localizer, TrimmedBurstKeepsStream) {
  // A burst that keeps only the leading RX1 chirps discards the rest's noise
  // in place: RX0, the RX1 prefix and the next draw all match the full burst.
  const auto chan = cluttered_channel();
  const LocalizerConfig cfg;
  const Localizer loc(cfg);
  const auto states = field2_states(cfg.n_chirps);
  std::uint64_t seed = 70;
  for (const std::size_t rx1_chirps : {std::size_t{0}, std::size_t{2}, cfg.n_chirps + 3}) {
    for (const bool steer_amplitudes : {false, true}) {
      const channel::NodePose pose{2.5, 8.0, -4.0};
      Rng rng(seed++);
      Rng replay = rng;
      const auto full = loc.synthesize_burst(chan, pose, states, 1.002, 5.0, rng,
                                             steer_amplitudes);
      const auto trimmed = loc.synthesize_burst(chan, pose, states, 1.002, 5.0, replay,
                                                steer_amplitudes, rx1_chirps);
      ASSERT_EQ(full.rx1.size(), cfg.n_chirps);
      EXPECT_EQ(trimmed.rx0, full.rx0) << "rx1_chirps " << rx1_chirps;
      ASSERT_EQ(trimmed.rx1.size(), std::min(rx1_chirps, cfg.n_chirps));
      for (std::size_t c = 0; c < trimmed.rx1.size(); ++c) {
        EXPECT_EQ(trimmed.rx1[c], full.rx1[c]) << "rx1_chirps " << rx1_chirps << " chirp " << c;
      }
      EXPECT_EQ(rng.engine()(), replay.engine()()) << "rx1_chirps " << rx1_chirps;
    }
  }
}

// The localization pass as it was specified before RX1 was trimmed to the
// AoA pair: the full two-antenna burst, 2 * n_chirps range FFTs, both
// background subtractions, and AoA from the two first-difference spectra.
// Kept verbatim as the spec Localizer::localize must reproduce bit for bit.
LocalizationResult reference_localize(const Localizer& loc,
                                      const channel::BackscatterChannel& channel,
                                      const channel::NodePose& pose, Rng& rng,
                                      ChirpBeats* rx0_sink) {
  const auto& cfg = loc.config();
  LocalizationResult result;
  result.steered_azimuth_deg =
      pose.azimuth_deg + rng.gaussian(0.0, channel.config().steering_error_sigma_deg);
  const double slope_scale = 1.0 + rng.gaussian(0.0, cfg.slope_error_rms);
  const auto states = field2_states(cfg.n_chirps);

  struct PassResult {
    bool detected = false;
    double range_m = 0.0;
    double snr_db = 0.0;
    std::optional<double> aoa_offset_deg;
    double angle_deg = 0.0;
  };
  const auto run_pass = [&](double steer_deg, bool steer_amplitudes,
                            ChirpBeats* beats_sink) {
    PassResult pass;
    auto burst = loc.synthesize_burst(channel, pose, states, slope_scale, steer_deg, rng,
                                      steer_amplitudes);
    std::vector<radar::RangeSpectrum> spectra0, spectra1;
    for (std::size_t i = 0; i < burst.rx0.size(); ++i) {
      spectra0.push_back(
          radar::range_fft(burst.rx0[i], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
      spectra1.push_back(
          radar::range_fft(burst.rx1[i], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
    }
    if (beats_sink != nullptr) *beats_sink = std::move(burst.rx0);
    const auto sub0 = radar::background_subtract(spectra0);
    const auto sub1 = radar::background_subtract(spectra1);
    const auto det = radar::estimate_range(sub0, spectra0.front(), cfg.range);
    if (!det) return pass;
    pass.detected = true;
    pass.range_m = det->range_m;
    pass.snr_db = det->snr_db;
    const auto bin = std::size_t(std::llround(det->bin));
    if (bin < sub0.first_difference.size() && bin < sub1.first_difference.size()) {
      pass.aoa_offset_deg = radar::estimate_offset_deg(
          sub0.first_difference[bin], sub1.first_difference[bin], cfg.aoa);
    }
    pass.angle_deg = steer_deg + pass.aoa_offset_deg.value_or(0.0);
    return pass;
  };

  const PassResult first = run_pass(result.steered_azimuth_deg, false, rx0_sink);
  if (first.detected) {
    result.detected = true;
    result.range_m = first.range_m;
    result.detection_snr_db = first.snr_db;
    result.aoa_offset_deg = first.aoa_offset_deg;
    result.angle_deg = first.angle_deg;
  }
  if (cfg.reflector_aware) {
    const auto aligned =
        channel.fsa().beam_frequency_hz(antenna::FsaPort::kA, pose.orientation_deg);
    const double f_node = aligned.value_or(cfg.chirp.center_frequency_hz());
    const auto ps = channel.node_path_set(pose);
    const double direct_blocker_db = ps.direct().blocker_loss_db;
    const channel::PropPath* strongest = nullptr;
    double best_advantage_db = cfg.nlos_margin_db;
    for (const auto& p : ps.paths) {
      if (p.bounces == 0 || p.severed()) continue;
      const double advantage_db = channel.indirect_return_advantage_db(
          antenna::FsaPort::kA, f_node, pose, p, direct_blocker_db, p.aoa_deg);
      if (advantage_db > best_advantage_db) {
        best_advantage_db = advantage_db;
        strongest = &p;
      }
    }
    if (strongest != nullptr && strongest->wall >= 0) {
      const double steer2_deg =
          strongest->aoa_deg +
          rng.gaussian(0.0, channel.config().steering_error_sigma_deg);
      const PassResult echo = run_pass(steer2_deg, true, nullptr);
      if (echo.detected) {
        const double half_deg = radar::unambiguous_halfwidth_deg(cfg.aoa);
        const double bearing_deg =
            std::abs(echo.angle_deg - strongest->aoa_deg) <= half_deg
                ? echo.angle_deg
                : strongest->aoa_deg;
        double nx = 0.0, ny = 0.0;
        const auto& wall = channel.multipath().walls[std::size_t(strongest->wall)];
        if (channel::nlos_unfold(wall, echo.range_m, bearing_deg, &nx, &ny)) {
          result.detected = true;
          result.range_m = std::hypot(nx, ny);
          result.angle_deg = rad2deg(std::atan2(ny, nx));
          result.detection_snr_db = echo.snr_db;
          result.aoa_offset_deg = echo.aoa_offset_deg;
          result.steered_azimuth_deg = steer2_deg;
          result.nlos_fallback = true;
          result.reflector_wall = strongest->wall;
        }
      }
    }
  }
  return result;
}

TEST(Localizer, LocalizeMatchesFullPipelineReference) {
  // Office clutter, anechoic, and the NLoS wall scene of bench_ext_nlos at
  // 0-30 dB direct-path blockage, so both passes and the fallback run.
  struct Case {
    channel::BackscatterChannel channel;
    LocalizerConfig config;
    channel::NodePose pose;
  };
  std::vector<Case> cases;
  for (const double az : {-18.0, -6.0, 0.0, 7.0, 15.0}) {
    for (const double d : {1.5, 4.5}) {
      cases.push_back({cluttered_channel(), {}, {d, az, az / 2.0 - 4.0}});
    }
  }
  for (const double d : {1.0, 3.0, 6.0, 9.0}) {
    cases.push_back({channel::BackscatterChannel::make_default(
                         channel::Environment::anechoic()),
                     {},
                     {d, 10.0 - d, 12.0}});
  }
  for (const double blockage_db : {0.0, 7.5, 15.0, 22.5, 30.0}) {
    for (const double wall_y : {0.9, 2.0}) {
      channel::MultipathConfig mp;
      mp.walls.push_back({0.5, wall_y, 3.5, wall_y, 10.0});
      channel::ChannelConfig cc;
      cc.blockage_loss_db = blockage_db;
      auto chan = channel::BackscatterChannel::make_default(
          channel::Environment::anechoic(), cc);
      chan.set_multipath(mp);
      LocalizerConfig aware;
      aware.reflector_aware = true;
      cases.push_back({chan, aware, {3.0, 0.0, 0.0}});
    }
  }
  ASSERT_GE(cases.size(), 20u);

  int nlos_fixes = 0;
  std::uint64_t seed = 80;
  for (const auto& c : cases) {
    const Localizer loc(c.config);
    for (int rep = 0; rep < 2; ++rep) {
      Rng rng(seed++);
      Rng replay = rng;
      ChirpBeats rx0, rx0_ref;
      const auto r = loc.localize(c.channel, c.pose, rng, &rx0);
      const auto e = reference_localize(loc, c.channel, c.pose, replay, &rx0_ref);
      const std::string where = "pose (" + std::to_string(c.pose.distance_m) + ", " +
                                std::to_string(c.pose.azimuth_deg) + ") seed " +
                                std::to_string(seed - 1);
      EXPECT_EQ(r.detected, e.detected) << where;
      EXPECT_EQ(r.range_m, e.range_m) << where;
      EXPECT_EQ(r.angle_deg, e.angle_deg) << where;
      EXPECT_EQ(r.detection_snr_db, e.detection_snr_db) << where;
      EXPECT_EQ(r.aoa_offset_deg, e.aoa_offset_deg) << where;
      EXPECT_EQ(r.steered_azimuth_deg, e.steered_azimuth_deg) << where;
      EXPECT_EQ(r.nlos_fallback, e.nlos_fallback) << where;
      EXPECT_EQ(r.reflector_wall, e.reflector_wall) << where;
      EXPECT_EQ(rx0, rx0_ref) << where;
      EXPECT_EQ(rng.engine()(), replay.engine()()) << where;
      nlos_fixes += r.nlos_fallback ? 1 : 0;
    }
  }
  EXPECT_GT(nlos_fixes, 0) << "the NLoS fallback never ran";
}

}  // namespace
}  // namespace milback::ap
