// Edge-condition integration tests: the awkward corners a deployment hits —
// normal incidence, heavy blockage, noisy preambles, saturation — must
// degrade the way the design says they degrade.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/link.hpp"
#include "milback/core/session.hpp"

namespace milback {
namespace {

core::MilBackLink make_link(double blockage_db = 0.0, std::uint64_t env_seed = 1) {
  Rng rng(env_seed);
  channel::ChannelConfig cfg;
  cfg.blockage_loss_db = blockage_db;
  return core::MilBackLink(channel::BackscatterChannel::make_default(
                               channel::Environment::indoor_office(rng), cfg),
                           core::LinkConfig{});
}

TEST(EdgeConditions, HeavyBlockageKillsLocalization) {
  // Node at 2.2 m (no clutter reflector nearby in this room seed, so a
  // residue cannot masquerade as a correct fix).
  const auto link = make_link(30.0);
  Rng master(1);
  int good_fixes = 0;
  for (int t = 0; t < 10; ++t) {
    auto rng = master.fork(std::uint64_t(t));
    const auto r = link.localize({2.2, 0.0, 12.0}, rng);
    good_fixes += r.detected && std::abs(r.range_m - 2.2) < 0.15;
  }
  // 60 dB of round-trip loss: the node's return is buried; at most a fluke.
  EXPECT_LE(good_fixes, 2);
}

TEST(EdgeConditions, ModerateBlockageDownlinkOutlivesUplink) {
  const auto link = make_link(12.0);
  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const channel::NodePose pose{3.0, 0.0, 15.0};
  const auto pair = link.channel().fsa().carrier_pair_for_angle(15.0);
  ASSERT_TRUE(pair.has_value());
  const auto dl = channel::compute_downlink_budget(link.channel(), pose,
                                                   antenna::FsaPort::kA, pair->first,
                                                   pair->second, det, sw, 1e9);
  const auto ul = channel::compute_uplink_budget(link.channel(), pose,
                                                 antenna::FsaPort::kA, pair->first, sw,
                                                 10e6);
  EXPECT_GT(dl.sinr_db, 10.0);              // downlink survives
  EXPECT_LT(ul.snr_db, dl.sinr_db - 4.0);   // uplink pays the blockage twice
}

TEST(EdgeConditions, SessionTracksAtNormalIncidence) {
  // Orientation ~0: OAQFM degenerates to OOK, but the session must still
  // acquire, track and deliver (at half spectral efficiency).
  const auto link = make_link();
  core::AdaptiveSession session;
  Rng rng(2);
  const channel::NodePose pose{2.5, 5.0, 0.3};
  auto first = session.step(link, pose, rng);
  ASSERT_EQ(first.state, core::SessionState::kTracking);
  int delivered_rounds = 0;
  for (int i = 0; i < 4; ++i) {
    const auto s = session.step(link, pose, rng);
    if (s.state == core::SessionState::kTracking && s.payload_bit_errors == 0) {
      ++delivered_rounds;
    }
  }
  EXPECT_GE(delivered_rounds, 3);
}

TEST(EdgeConditions, DownlinkOokAtExactZero) {
  const auto link = make_link();
  Rng rng(3);
  Rng data(4);
  const auto bits = data.bits(400);
  const auto r = link.run_downlink({2.0, 0.0, 0.0}, bits, rng);
  ASSERT_TRUE(r.carriers_ok);
  EXPECT_EQ(r.mode, core::ModulationMode::kOok);
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(EdgeConditions, OrientationBeyondScanRangeDegradesService) {
  // Beyond the scan range the true carrier pair does not exist; the AP's
  // (clamped) orientation estimate picks band-edge carriers whose beams
  // point up to ~14 degrees away from the node, costing double-digit dB.
  const auto link = make_link();
  EXPECT_FALSE(link.channel().fsa().carrier_pair_for_angle(45.0).has_value());
  Rng r1(5), r2(6);
  Rng data(7);
  const auto bits = data.bits(400);
  const auto aligned = link.run_downlink({4.0, 0.0, 15.0}, bits, r1);
  const auto beyond = link.run_downlink({4.0, 0.0, 45.0}, bits, r2);
  ASSERT_TRUE(aligned.carriers_ok);
  if (beyond.carriers_ok) {
    EXPECT_LT(beyond.sinr_db, aligned.sinr_db - 8.0);
  }
}

TEST(EdgeConditions, VeryCloseNodeStillWorks) {
  // 0.6 m: deep inside the residual-SI-capped regime; everything must still
  // decode (saturation, not failure).
  const auto link = make_link();
  Rng rng(7);
  Rng data(8);
  const auto bits = data.bits(800);
  const auto dl = link.run_downlink({0.6, 0.0, 15.0}, bits, rng);
  ASSERT_TRUE(dl.carriers_ok);
  EXPECT_EQ(dl.bit_errors, 0u);
  const auto ul = link.run_uplink({0.6, 0.0, 15.0}, bits, rng);
  ASSERT_TRUE(ul.carriers_ok);
  EXPECT_EQ(ul.bit_errors, 0u);
  // The SNR cap: close range is NOT better than the cap.
  EXPECT_LT(ul.snr_db, 28.0);
}

TEST(EdgeConditions, Field1DetectionSurvivesNoisyTrace) {
  // Direction detection must tolerate detector noise on the MCU trace.
  const auto link = make_link();
  Rng master(9);
  int correct = 0;
  const int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    auto rng = master.fork(std::uint64_t(t + 100));
    const channel::NodePose pose{6.0, 0.0, 18.0};  // long range = noisy trace
    const auto trace = link.node_field1_trace(pose, antenna::FsaPort::kA,
                                              core::LinkDirection::kDownlink, rng);
    const auto det = core::detect_direction(
        trace, link.node().mcu().adc().config().sample_rate_hz,
        link.config().packet.preamble);
    correct += det && *det == core::LinkDirection::kDownlink;
  }
  EXPECT_GE(correct, kTrials - 2);
}

TEST(EdgeConditions, DetectorSaturationDoesNotCorruptDecoding) {
  // Drive the node so hard the detector clamps: bits must still decode
  // (clipping flattens the '1' level, not the decision).
  rf::EnvelopeDetectorConfig cfg;
  cfg.max_output_v = 0.05;  // clamp far below the drive level
  cfg.output_noise_v_per_rthz = 0.0;
  const rf::EnvelopeDetector det{cfg};
  Rng rng(10);
  const double fs = 64e6;
  std::vector<double> p;
  std::vector<bool> bits{true, false, true, true, false, true};
  for (const bool b : bits) p.insert(p.end(), 64, b ? 1e-3 : 0.0);  // hard overdrive
  const auto v = det.detect(p, fs, rng);
  node::DownlinkDemodConfig demod{.symbol_rate_hz = 1e6, .sample_point = 0.75,
                                  .mode = core::ModulationMode::kOok};
  const auto rx = node::demodulate_downlink_ook(v, std::vector<double>(v.size(), 0.0),
                                                fs, demod);
  ASSERT_EQ(rx.size(), bits.size());
  EXPECT_EQ(rx, bits);
}

}  // namespace
}  // namespace milback
