// Link-budget tests: closed forms, regime behaviour and paper anchors.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/channel/link_budget.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {
namespace {

BackscatterChannel make_channel() {
  return BackscatterChannel::make_default(Environment::anechoic());
}

rf::EnvelopeDetector make_detector() { return rf::EnvelopeDetector{{}}; }
rf::RfSwitch make_switch() { return rf::RfSwitch{{}}; }

NodePose pose_at(double d) { return NodePose{d, 0.0, 20.0}; }

std::pair<double, double> carriers(const BackscatterChannel& chan) {
  const auto pair = chan.fsa().carrier_pair_for_angle(20.0);
  EXPECT_TRUE(pair.has_value());
  return *pair;
}

TEST(ModulationCoeff, BetweenZeroAndOne) {
  const auto sw = make_switch();
  const double m = modulation_power_coeff(sw);
  EXPECT_GT(m, 0.01);
  EXPECT_LT(m, 0.25);  // (a_r - a_a)/2 can never exceed 1/2 in amplitude
}

TEST(ModulationCoeff, GrowsWithContrast) {
  rf::RfSwitchConfig lossy;
  lossy.insertion_loss_db = 4.0;
  const double low = modulation_power_coeff(rf::RfSwitch{lossy});
  const double high = modulation_power_coeff(make_switch());
  EXPECT_GT(high, low);
}

TEST(DownlinkBudget, SinrCombinesSnrAndSir) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto b = compute_downlink_budget(chan, pose_at(4.0), antenna::FsaPort::kA, fa, fb,
                                         make_detector(), make_switch(), 1e9);
  const double combined =
      -lin2db(db2lin(-b.snr_db) + db2lin(-b.sir_db));
  EXPECT_NEAR(b.sinr_db, combined, 0.01);
  EXPECT_LT(b.sinr_db, b.snr_db);
  EXPECT_LT(b.sinr_db, b.sir_db);
}

TEST(DownlinkBudget, InterferenceLimitedAtShortRange) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto b = compute_downlink_budget(chan, pose_at(1.0), antenna::FsaPort::kA, fa, fb,
                                         make_detector(), make_switch(), 1e9);
  EXPECT_LT(b.sir_db, b.snr_db);  // interference dominates up close
  // Fig 14 anchor: short-range SINR ~ 25 dB.
  EXPECT_NEAR(b.sinr_db, 25.0, 2.5);
}

TEST(DownlinkBudget, NoiseLimitedAtLongRangeFig14Anchor) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto b = compute_downlink_budget(chan, pose_at(10.0), antenna::FsaPort::kA, fa, fb,
                                         make_detector(), make_switch(), 1e9);
  EXPECT_GT(b.sir_db, b.snr_db);  // noise dominates far away
  // Fig 14 anchor: "SINR of more than 12 dB even when the node is 10 m away".
  EXPECT_NEAR(b.sinr_db, 12.0, 1.5);
}

TEST(DownlinkBudget, SinrMonotoneDecreasingWithDistance) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  double prev = 1e9;
  for (double d = 1.0; d <= 12.0; d += 1.0) {
    const auto b = compute_downlink_budget(chan, pose_at(d), antenna::FsaPort::kA, fa, fb,
                                           make_detector(), make_switch(), 1e9);
    EXPECT_LT(b.sinr_db, prev);
    prev = b.sinr_db;
  }
}

TEST(DownlinkBudget, TermsSumNearSignal) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto b = compute_downlink_budget(chan, pose_at(3.0), antenna::FsaPort::kA, fa, fb,
                                         make_detector(), make_switch(), 1e9);
  const auto terms =
      downlink_budget_terms(chan, pose_at(3.0), antenna::FsaPort::kA, fa, make_switch());
  double sum = 0.0;
  for (const auto& t : terms) sum += t.value_db;
  EXPECT_NEAR(sum, b.signal_dbm, 0.01);
  EXPECT_FALSE(format_terms(terms).empty());
}

TEST(UplinkBudget, FortyDbPerDecadeUntilCap) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto sw = make_switch();
  const auto b5 = compute_uplink_budget(chan, pose_at(5.0), antenna::FsaPort::kA, fa, sw, 10e6);
  const auto b10 = compute_uplink_budget(chan, pose_at(10.0), antenna::FsaPort::kA, fa, sw, 10e6);
  // Both points are thermal-noise limited: expect ~12 dB per octave.
  EXPECT_NEAR(b5.snr_db - b10.snr_db, 12.04, 1.0);
}

TEST(UplinkBudget, ShortRangeCappedByResidualSelfInterference) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto sw = make_switch();
  const auto b1 = compute_uplink_budget(chan, pose_at(1.0), antenna::FsaPort::kA, fa, sw, 10e6);
  const auto b05 = compute_uplink_budget(chan, pose_at(0.5), antenna::FsaPort::kA, fa, sw, 10e6);
  // Moving closer stops helping: the cap is -multiplicative_noise_db.
  EXPECT_LT(b05.snr_db - b1.snr_db, 1.0);
  EXPECT_NEAR(b1.snr_db, -chan.config().multiplicative_noise_db, 1.0);
}

TEST(UplinkBudget, RateQuadruplingCostsSixDb) {
  // Fig 15: 40 Mbps runs ~6 dB below 10 Mbps (noise bandwidth x4), in the
  // thermal-limited regime.
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto sw = make_switch();
  const auto b10 = compute_uplink_budget(chan, pose_at(7.0), antenna::FsaPort::kA, fa, sw, 10e6);
  const auto b40 = compute_uplink_budget(chan, pose_at(7.0), antenna::FsaPort::kA, fa, sw, 40e6);
  EXPECT_NEAR(b10.snr_db - b40.snr_db, 6.02, 0.6);
}

TEST(UplinkBudget, PaperOperatingPointEightMeters) {
  // Fig 15a: at 8 m / 10 Mbps the paper reports BER ~ 2e-4, i.e. SNR ~ 12 dB.
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto b = compute_uplink_budget(chan, pose_at(8.0), antenna::FsaPort::kA, fa,
                                       make_switch(), 10e6);
  EXPECT_NEAR(b.snr_db, 12.0, 1.5);
}

TEST(UplinkBudget, TermsArePopulated) {
  const auto chan = make_channel();
  const auto [fa, fb] = carriers(chan);
  const auto b = compute_uplink_budget(chan, pose_at(3.0), antenna::FsaPort::kA, fa,
                                       make_switch(), 10e6);
  const auto terms =
      uplink_budget_terms(chan, pose_at(3.0), antenna::FsaPort::kA, fa, make_switch());
  EXPECT_GE(terms.size(), 8u);
  EXPECT_DOUBLE_EQ(b.noise_bandwidth_hz, 10e6);
}

TEST(RadarBudget, DetectableAcrossPaperRange) {
  const auto chan = make_channel();
  for (double d : {1.0, 4.0, 8.0}) {
    const auto b = compute_radar_budget(chan, pose_at(d), make_switch(), 18e-6, 50e6);
    EXPECT_GT(b.snr_db, 10.0) << "node undetectable at " << d << " m";
  }
}

TEST(RadarBudget, ClutterAboveNodeReturn) {
  Rng rng(5);
  const auto chan = BackscatterChannel::make_default(Environment::indoor_office(rng));
  const auto b = compute_radar_budget(chan, pose_at(5.0), make_switch(), 18e-6, 50e6);
  EXPECT_GT(b.clutter_dbm, b.rx_signal_dbm);
}

}  // namespace
}  // namespace milback::channel
