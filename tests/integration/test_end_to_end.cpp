// Paper-level integration assertions: the headline claims of the MilBack
// evaluation, run through the full simulated system.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/link.hpp"
#include "milback/core/ber.hpp"
#include "milback/util/stats.hpp"

namespace milback {
namespace {

core::MilBackLink make_link(std::uint64_t env_seed = 1) {
  Rng rng(env_seed);
  auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
  return core::MilBackLink(std::move(chan), core::LinkConfig{});
}

TEST(PaperClaims, AbstractRange8mUplinkDownlink) {
  // "accurate localization, uplink, and downlink communication at up to 8 m"
  const auto link = make_link();
  Rng rng(100);
  Rng data(101);
  const auto bits = data.bits(1000);
  const channel::NodePose pose{8.0, 0.0, 15.0};

  const auto loc = link.localize(pose, rng);
  ASSERT_TRUE(loc.detected);
  EXPECT_NEAR(loc.range_m, 8.0, 0.3);

  const auto dl = link.run_downlink(pose, bits, rng);
  ASSERT_TRUE(dl.carriers_ok);
  EXPECT_LT(dl.ber, 0.01);

  const auto ul = link.run_uplink(pose, bits, rng);
  ASSERT_TRUE(ul.carriers_ok);
  EXPECT_LT(ul.ber, 0.01);
  // Fig 15a anchor: ~12 dB SNR at 8 m / 10 Mbps.
  EXPECT_NEAR(ul.snr_db, 12.0, 2.0);
}

TEST(PaperClaims, DownlinkBeatsUplinkSnr) {
  // Section 9.5: "MilBack achieves higher SNR in downlink compared to the
  // uplink ... the signal gets attenuated by the channel twice." Compare at
  // equal noise bandwidths (the uplink bit rate) so the one-way-vs-two-way
  // path loss is the only difference.
  Rng env(1);
  auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env));
  core::LinkConfig cfg;
  cfg.downlink_measurement_bw_hz = cfg.uplink_bit_rate_bps;
  const core::MilBackLink link(std::move(chan), cfg);
  Rng r1(102), r2(103);
  Rng data(104);
  const auto bits = data.bits(400);
  const channel::NodePose pose{6.0, 0.0, 15.0};
  const auto dl = link.run_downlink(pose, bits, r1);
  const auto ul = link.run_uplink(pose, bits, r2);
  ASSERT_TRUE(dl.carriers_ok && ul.carriers_ok);
  EXPECT_GT(dl.sinr_db, ul.snr_db);
}

TEST(PaperClaims, LocalizationAccuracyFig12a) {
  // Mean error < 5 cm at 5 m and < 12 cm at 8 m.
  const auto link = make_link();
  Rng master(105);
  auto mean_err = [&](double d) {
    std::vector<double> errs;
    for (int t = 0; t < 20; ++t) {
      auto rng = master.fork(std::uint64_t(t * 131) + std::uint64_t(d * 7));
      const auto r = link.localize({d, 0.0, 10.0}, rng);
      if (r.detected) errs.push_back(std::abs(r.range_m - d));
    }
    EXPECT_GE(errs.size(), 17u);
    return mean(errs);
  };
  EXPECT_LT(mean_err(5.0), 0.06);
  EXPECT_LT(mean_err(8.0), 0.13);
}

TEST(PaperClaims, OrientationAccuracyFig13) {
  // Node-side: mean error always < 3 degrees. AP-side: < ~3 degrees even in
  // the degraded region.
  const auto link = make_link();
  Rng master(106);
  for (double o : {-20.0, -10.0, 10.0, 20.0}) {
    std::vector<double> node_errs, ap_errs;
    for (int t = 0; t < 15; ++t) {
      auto rng = master.fork(std::uint64_t(t * 17) + std::uint64_t(o * 3 + 100));
      const channel::NodePose pose{2.0, 0.0, o};
      const auto ne = link.sense_orientation_at_node(pose, rng);
      if (ne) node_errs.push_back(std::abs(ne->orientation_deg - o));
      const auto ae = link.sense_orientation_at_ap(pose, rng);
      if (ae.valid) ap_errs.push_back(std::abs(ae.orientation_deg - o));
    }
    EXPECT_LT(mean(node_errs), 3.0) << "node orientation " << o;
    EXPECT_LT(mean(ap_errs), 3.0) << "AP orientation " << o;
  }
}

TEST(PaperClaims, PacketOrientationMeetsFig13Bounds) {
  // Both estimates as a packet takes them: the node's from its Field-1
  // traces, the AP's from the Field-2 localization burst. Fig 13a: node mean
  // error < 3 deg; Fig 13b: AP mean error < 1.5 deg away from the mirror
  // region, here 8-16 deg either side of normal incidence at 2 m.
  const auto link = make_link();
  Rng data(120);
  const auto bits = data.bits(128);
  std::vector<double> node_errs, ap_errs;
  std::uint64_t seed = 121;
  for (const double o : {-16.0, -12.0, -8.0, 8.0, 12.0, 16.0}) {
    for (int t = 0; t < 8; ++t) {
      Rng rng(seed++);
      const auto dir = t % 2 == 0 ? core::LinkDirection::kUplink : core::LinkDirection::kDownlink;
      const auto r = link.run_packet({2.0, 0.0, o}, dir, bits, rng);
      if (r.node_orientation) {
        node_errs.push_back(std::abs(r.node_orientation->orientation_deg - o));
      }
      if (r.ap_orientation.valid) {
        ap_errs.push_back(std::abs(r.ap_orientation.orientation_deg - o));
      }
    }
  }
  EXPECT_GE(node_errs.size(), 46u);
  EXPECT_GE(ap_errs.size(), 46u);
  EXPECT_LT(mean(node_errs), 3.0);
  EXPECT_LT(mean(ap_errs), 1.5);
}

TEST(PaperClaims, PowerConsumption) {
  // 18 mW localization/downlink, 32 mW uplink (at 40 Mbps).
  const auto link = make_link();
  auto node = link.node();
  node.enter_mode(node::NodeMode::kDownlink);
  EXPECT_NEAR(node.power_w() * 1e3, 18.0, 0.5);
  node.enter_mode(node::NodeMode::kUplink);
  EXPECT_NEAR(node.power_w(20e6) * 1e3, 32.0, 1.0);
}

TEST(PaperClaims, OaqfmNeedsNoMixerOrOscillator) {
  // Structural: decode happens from two envelope-detector voltage traces and
  // a threshold — exactly the paper's "simple low-power baseband processor".
  const auto link = make_link();
  Rng rng(107);
  Rng data(108);
  const auto bits = data.bits(200);
  const auto r = link.run_downlink({3.0, 0.0, 18.0}, bits, rng);
  ASSERT_TRUE(r.carriers_ok);
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(PaperClaims, ProtocolRoundTripBothDirections) {
  const auto link = make_link();
  Rng master(109);
  for (const auto dir : {core::LinkDirection::kDownlink, core::LinkDirection::kUplink}) {
    int ok = 0;
    for (int t = 0; t < 10; ++t) {
      auto rng = master.fork(std::uint64_t(t + 50 * int(dir)));
      auto data = master.fork(std::uint64_t(1000 + t));
      const auto r = link.run_packet({2.5, 0.0, 14.0}, dir, data.bits(512), rng);
      if (r.direction_ok && r.localization.detected) ++ok;
    }
    EXPECT_GE(ok, 9) << "direction " << int(dir);
  }
}

TEST(PaperClaims, SinrSupportsVeryLowBerAt10m) {
  // Fig 14: ">12 dB SINR at 10 m" and the system targets BER < 1e-8 at the
  // full rate when SINR is sufficient.
  const auto link = make_link();
  Rng rng(110);
  Rng data(111);
  const auto r = link.run_downlink({10.0, 0.0, 15.0}, data.bits(2000), rng);
  ASSERT_TRUE(r.carriers_ok);
  EXPECT_GT(r.sinr_db, 10.0);
  EXPECT_LT(r.ber, 0.02);
}

TEST(PaperClaims, DeterministicExperiments) {
  // Identical seeds -> identical outcomes across whole packet exchanges.
  const auto link = make_link();
  Rng r1(112), r2(112);
  Rng d1(113), d2(113);
  const auto a =
      link.run_packet({2.0, 0.0, 12.0}, core::LinkDirection::kUplink, d1.bits(256), r1);
  const auto b =
      link.run_packet({2.0, 0.0, 12.0}, core::LinkDirection::kUplink, d2.bits(256), r2);
  EXPECT_EQ(a.direction_ok, b.direction_ok);
  EXPECT_DOUBLE_EQ(a.localization.range_m, b.localization.range_m);
  ASSERT_TRUE(a.uplink && b.uplink);
  EXPECT_EQ(a.uplink->bit_errors, b.uplink->bit_errors);
}

}  // namespace
}  // namespace milback
