// Link-budget invariants swept over the (distance, orientation) grid.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/channel/link_budget.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {
namespace {

struct GridPoint {
  double distance_m;
  double orientation_deg;
};

class BudgetGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  BackscatterChannel chan_ = BackscatterChannel::make_default(Environment::anechoic());
  rf::EnvelopeDetector det_{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw_{rf::RfSwitchConfig{}};

  NodePose pose() const {
    return NodePose{GetParam().distance_m, 0.0, GetParam().orientation_deg};
  }

  std::pair<double, double> carriers() const {
    const auto pair = chan_.fsa().carrier_pair_for_angle(GetParam().orientation_deg);
    EXPECT_TRUE(pair.has_value());
    return *pair;
  }
};

TEST_P(BudgetGrid, DownlinkSinrBelowBothComponents) {
  const auto [fa, fb] = carriers();
  const auto b = compute_downlink_budget(chan_, pose(), antenna::FsaPort::kA, fa, fb,
                                         det_, sw_, 1e9);
  EXPECT_LE(b.sinr_db, b.snr_db + 1e-9);
  EXPECT_LE(b.sinr_db, b.sir_db + 1e-9);
  // And never more than 3 dB below the worse of the two.
  EXPECT_GE(b.sinr_db, std::min(b.snr_db, b.sir_db) - 3.01);
}

TEST_P(BudgetGrid, SirIndependentOfDistance) {
  // Both signal and interference scale with 1/d^2: SIR is a pure antenna
  // property of the orientation.
  const auto [fa, fb] = carriers();
  const auto here = compute_downlink_budget(chan_, pose(), antenna::FsaPort::kA, fa, fb,
                                            det_, sw_, 1e9);
  auto far_pose = pose();
  far_pose.distance_m *= 2.0;
  const auto far = compute_downlink_budget(chan_, far_pose, antenna::FsaPort::kA, fa, fb,
                                           det_, sw_, 1e9);
  EXPECT_NEAR(here.sir_db, far.sir_db, 1e-9);
}

TEST_P(BudgetGrid, DownlinkSnrDropsSixDbPerDistanceDoubling) {
  const auto [fa, fb] = carriers();
  const auto here = compute_downlink_budget(chan_, pose(), antenna::FsaPort::kA, fa, fb,
                                            det_, sw_, 1e9);
  auto far_pose = pose();
  far_pose.distance_m *= 2.0;
  const auto far = compute_downlink_budget(chan_, far_pose, antenna::FsaPort::kA, fa, fb,
                                           det_, sw_, 1e9);
  EXPECT_NEAR(here.snr_db - far.snr_db, 6.02, 0.05);
}

TEST_P(BudgetGrid, UplinkNoiseBandwidthTradeExact) {
  const auto [fa, fb] = carriers();
  const auto b10 =
      compute_uplink_budget(chan_, pose(), antenna::FsaPort::kA, fa, sw_, 10e6);
  const auto b40 =
      compute_uplink_budget(chan_, pose(), antenna::FsaPort::kA, fa, sw_, 40e6);
  // In the thermal-limited regime exactly 6.02 dB; the residual-SI cap can
  // only shrink the gap.
  const double gap = b10.snr_db - b40.snr_db;
  EXPECT_GE(gap, -0.01);
  EXPECT_LE(gap, 6.03);
}

TEST_P(BudgetGrid, SymmetricPortsAgreeAtMirroredOrientation) {
  const auto [fa, fb] = carriers();
  const auto a = compute_uplink_budget(chan_, pose(), antenna::FsaPort::kA, fa, sw_, 10e6);
  NodePose mirrored = pose();
  mirrored.orientation_deg = -mirrored.orientation_deg;
  const auto pair_m = chan_.fsa().carrier_pair_for_angle(mirrored.orientation_deg);
  ASSERT_TRUE(pair_m.has_value());
  const auto b = compute_uplink_budget(chan_, mirrored, antenna::FsaPort::kB,
                                       pair_m->second, sw_, 10e6);
  EXPECT_NEAR(a.snr_db, b.snr_db, 1e-6);
}

TEST_P(BudgetGrid, RadarSnrExceedsUplinkSnr) {
  // Localization integrates a whole chirp (processing gain); it must beat
  // the per-bit communication SNR at the same pose.
  const auto [fa, fb] = carriers();
  const auto ul = compute_uplink_budget(chan_, pose(), antenna::FsaPort::kA, fa, sw_, 10e6);
  const auto radar = compute_radar_budget(chan_, pose(), sw_, 18e-6, 50e6);
  EXPECT_GT(radar.snr_db, ul.snr_db);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BudgetGrid,
    ::testing::Values(GridPoint{1.0, 10.0}, GridPoint{2.0, 20.0}, GridPoint{3.0, 5.0},
                      GridPoint{4.0, 15.0}, GridPoint{5.0, 25.0}, GridPoint{6.0, 10.0},
                      GridPoint{8.0, 15.0}, GridPoint{2.0, -20.0}, GridPoint{4.0, -10.0},
                      GridPoint{6.0, -25.0}),
    [](const auto& gen_info) {
      const auto& p = gen_info.param;
      std::string o = p.orientation_deg < 0
                          ? "neg" + std::to_string(int(-p.orientation_deg))
                          : std::to_string(int(p.orientation_deg));
      return "d" + std::to_string(int(p.distance_m)) + "_o" + o;
    });

}  // namespace
}  // namespace milback::channel
