// Backscatter channel model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/channel/backscatter_channel.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {
namespace {

BackscatterChannel make_channel() {
  return BackscatterChannel::make_default(Environment::anechoic());
}

TEST(BackscatterChannel, IncidentPowerDecaysWithDistance) {
  const auto chan = make_channel();
  const double f = 28.5e9;
  NodePose near{2.0, 0.0, 10.0}, far{8.0, 0.0, 10.0};
  const double p_near = chan.incident_port_power_dbm(antenna::FsaPort::kA, f, near);
  const double p_far = chan.incident_port_power_dbm(antenna::FsaPort::kA, f, far);
  EXPECT_NEAR(p_near - p_far, 20.0 * std::log10(4.0), 1e-9);
}

TEST(BackscatterChannel, IncidentPowerPeaksAtAlignedFrequency) {
  const auto chan = make_channel();
  NodePose pose{2.0, 0.0, 15.0};
  const auto f_aligned = chan.fsa().beam_frequency_hz(antenna::FsaPort::kA, 15.0);
  ASSERT_TRUE(f_aligned.has_value());
  const double p_aligned =
      chan.incident_port_power_dbm(antenna::FsaPort::kA, *f_aligned, pose);
  for (double df : {-800e6, -400e6, 400e6, 800e6}) {
    EXPECT_GT(p_aligned,
              chan.incident_port_power_dbm(antenna::FsaPort::kA, *f_aligned + df, pose));
  }
}

TEST(BackscatterChannel, CrossPortIsSidelobeLevel) {
  const auto chan = make_channel();
  NodePose pose{2.0, 0.0, 20.0};
  const auto pair = chan.fsa().carrier_pair_for_angle(20.0);
  ASSERT_TRUE(pair.has_value());
  const double sig = chan.incident_port_power_dbm(antenna::FsaPort::kA, pair->first, pose);
  // Tone B (intended for port B) leaking into port A.
  const double leak = chan.incident_port_power_dbm(
      antenna::other_port(antenna::FsaPort::kB), pair->second, pose);
  EXPECT_GT(sig - leak, 15.0);
}

TEST(BackscatterChannel, BackscatterFortyDbPerDecade) {
  const auto chan = make_channel();
  const double f = 28.5e9;
  NodePose d1{1.0, 0.0, 10.0}, d10{10.0, 0.0, 10.0};
  const double p1 = chan.backscatter_power_dbm(antenna::FsaPort::kA, f, d1, 1.0);
  const double p10 = chan.backscatter_power_dbm(antenna::FsaPort::kA, f, d10, 1.0);
  EXPECT_NEAR(p1 - p10, 40.0, 1e-9);
}

TEST(BackscatterChannel, NodeReturnFields) {
  const auto chan = make_channel();
  NodePose pose{4.0, 7.0, 10.0};
  const auto ret = chan.modulated_returns(antenna::FsaPort::kA, 28.5e9, pose, 0.5).front();
  EXPECT_TRUE(ret.modulated);
  EXPECT_DOUBLE_EQ(ret.azimuth_deg, 7.0);
  EXPECT_NEAR(ret.delay_s, round_trip_delay_s(4.0), 1e-15);
  EXPECT_NEAR(watt2dbm(ret.power_w),
              chan.backscatter_power_dbm(antenna::FsaPort::kA, 28.5e9, pose, 0.5), 1e-9);
}

TEST(BackscatterChannel, ClutterAttenuatedByHornPattern) {
  Environment env;
  env.add({3.0, 0.0, 0.1});   // on the node bearing
  env.add({3.0, 40.0, 0.1});  // far off the beam
  const auto chan = BackscatterChannel::make_default(env);
  NodePose pose{3.0, 0.0, 0.0};
  const auto returns = chan.clutter_returns(28e9, pose);
  ASSERT_EQ(returns.size(), 2u);
  EXPECT_GT(returns[0].power_w, 100.0 * returns[1].power_w);
  EXPECT_FALSE(returns[0].modulated);
}

TEST(BackscatterChannel, ClutterStrongerThanNodeReturn) {
  // The premise of background subtraction: raw clutter dwarfs the node.
  Rng rng(3);
  auto env = Environment::indoor_office(rng);
  const auto chan = BackscatterChannel::make_default(env);
  NodePose pose{5.0, 0.0, 10.0};
  const auto node = chan.modulated_returns(antenna::FsaPort::kA, 28.5e9, pose, 0.05).front();
  double clutter_total = 0.0;
  for (const auto& c : chan.clutter_returns(28e9, pose)) clutter_total += c.power_w;
  EXPECT_GT(clutter_total, node.power_w);
}

TEST(BackscatterChannel, NoiseFloorMatchesThermalPlusNf) {
  const auto chan = make_channel();
  EXPECT_NEAR(watt2dbm(chan.ap_noise_floor_w(1e6)),
              -114.0 + chan.config().rx_noise_figure_db, 0.1);
}

TEST(BackscatterChannel, ApDefaultsMatchPaper) {
  // ChannelConfig is the one model of the AP's RF parts: 27 dBm at the horn
  // port, 47 dBm EIRP through the 20 dBi horn, and a 5.0 dB receive NF that
  // is the LNA -> mixer -> BPF Friis cascade plus a 1.33 dB margin.
  const auto chan = make_channel();
  EXPECT_DOUBLE_EQ(chan.config().tx_power_dbm, 27.0);
  EXPECT_DOUBLE_EQ(chan.config().tx_power_dbm + chan.ap_tx_antenna().gain_dbi(0.0), 47.0);
  EXPECT_DOUBLE_EQ(chan.config().rx_noise_figure_db, 5.0);

  const double lna_f = db2lin(3.5), lna_g = db2lin(20.0);
  const double mixer_f = db2lin(9.0), mixer_g = db2lin(-9.0);
  const double bpf_f = db2lin(1.0);
  const double cascade_db =
      lin2db(lna_f + (mixer_f - 1.0) / lna_g + (bpf_f - 1.0) / (lna_g * mixer_g));
  EXPECT_NEAR(cascade_db, 3.67, 0.005);
  EXPECT_NEAR(cascade_db + 1.33, chan.config().rx_noise_figure_db, 0.005);
}

TEST(BackscatterChannel, EffectiveUplinkNoiseRegimes) {
  const auto chan = make_channel();
  // Weak signal: thermal dominates.
  const double weak = chan.effective_uplink_noise_w(1e-15, 10e6);
  EXPECT_NEAR(weak, chan.ap_noise_floor_w(10e6), chan.ap_noise_floor_w(10e6) * 0.01);
  // Strong signal: multiplicative term dominates and caps SNR at
  // -multiplicative_noise_db.
  const double strong_sig = 1e-3;
  const double strong = chan.effective_uplink_noise_w(strong_sig, 10e6);
  EXPECT_NEAR(lin2db(strong_sig / strong), -chan.config().multiplicative_noise_db, 0.5);
}

TEST(BackscatterChannel, OrientationGatesBackscatterPower) {
  const auto chan = make_channel();
  // At the aligned frequency for 10 degrees, a node rotated to 30 degrees
  // reflects far less.
  const auto f = chan.fsa().beam_frequency_hz(antenna::FsaPort::kA, 10.0);
  ASSERT_TRUE(f.has_value());
  NodePose aligned{3.0, 0.0, 10.0}, rotated{3.0, 0.0, 30.0};
  const double pa = chan.backscatter_power_dbm(antenna::FsaPort::kA, *f, aligned, 1.0);
  const double pr = chan.backscatter_power_dbm(antenna::FsaPort::kA, *f, rotated, 1.0);
  EXPECT_GT(pa - pr, 20.0);
}

}  // namespace
}  // namespace milback::channel
