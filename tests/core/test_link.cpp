// End-to-end link tests: the four paper workflows through one MilBackLink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "milback/core/energy.hpp"
#include "milback/core/link.hpp"

namespace milback::core {
namespace {

MilBackLink make_link(std::uint64_t env_seed = 1) {
  Rng rng(env_seed);
  auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
  return MilBackLink(std::move(chan), LinkConfig{});
}

TEST(Link, LocalizeFindsNode) {
  const auto link = make_link();
  Rng rng(2);
  const auto r = link.localize({3.0, 0.0, 12.0}, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 3.0, 0.2);
}

TEST(Link, OrientationAtBothEndsAgree) {
  const auto link = make_link();
  Rng rng(3);
  const channel::NodePose pose{2.0, 0.0, 14.0};
  const auto ap_est = link.sense_orientation_at_ap(pose, rng);
  const auto node_est = link.sense_orientation_at_node(pose, rng);
  ASSERT_TRUE(ap_est.valid);
  ASSERT_TRUE(node_est.has_value());
  EXPECT_NEAR(ap_est.orientation_deg, 14.0, 3.0);
  EXPECT_NEAR(node_est->orientation_deg, 14.0, 3.0);
  EXPECT_NEAR(ap_est.orientation_deg, node_est->orientation_deg, 4.0);
}

TEST(Link, DownlinkErrorFreeAtTwoMeters) {
  const auto link = make_link();
  Rng rng(4);
  Rng data(5);
  const auto bits = data.bits(2000);
  const auto r = link.run_downlink({2.0, 0.0, 15.0}, bits, rng);
  ASSERT_TRUE(r.carriers_ok);
  EXPECT_EQ(r.mode, ModulationMode::kOaqfm);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_GT(r.sinr_db, 18.0);
  EXPECT_LT(r.analytic_ber, 1e-6);
}

TEST(Link, DownlinkOokFallbackAtNormalIncidence) {
  const auto link = make_link();
  Rng rng(6);
  Rng data(7);
  const auto bits = data.bits(500);
  const auto r = link.run_downlink({2.0, 0.0, 0.0}, bits, rng);
  ASSERT_TRUE(r.carriers_ok);
  EXPECT_EQ(r.mode, ModulationMode::kOok);
  EXPECT_DOUBLE_EQ(r.carriers.f_a_hz, r.carriers.f_b_hz);
  EXPECT_EQ(r.bit_errors, 0u);
}

TEST(Link, UplinkErrorFreeAtThreeMeters) {
  const auto link = make_link();
  Rng rng(8);
  Rng data(9);
  const auto bits = data.bits(2000);
  const auto r = link.run_uplink({3.0, 0.0, 15.0}, bits, rng);
  ASSERT_TRUE(r.carriers_ok);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_GT(r.snr_db, 15.0);
  EXPECT_GT(r.measured_snr_db, 10.0);
}

TEST(Link, UplinkRateSnrTradeoff) {
  // 40 Mbps runs ~6 dB below 10 Mbps in budget SNR (Fig 15a vs 15b).
  const auto link = make_link();
  Rng r1(10), r2(11);
  Rng data(12);
  const auto bits = data.bits(600);
  const channel::NodePose pose{6.0, 0.0, 15.0};
  const auto slow = link.run_uplink(pose, bits, r1, 10e6);
  const auto fast = link.run_uplink(pose, bits, r2, 40e6);
  ASSERT_TRUE(slow.carriers_ok && fast.carriers_ok);
  EXPECT_NEAR(slow.snr_db - fast.snr_db, 6.0, 1.5);
}

TEST(Link, DownlinkDegradesWithDistance) {
  const auto link = make_link();
  Rng r1(13), r2(14);
  Rng data(15);
  const auto bits = data.bits(400);
  const auto near = link.run_downlink({2.0, 0.0, 15.0}, bits, r1);
  const auto far = link.run_downlink({10.0, 0.0, 15.0}, bits, r2);
  ASSERT_TRUE(near.carriers_ok && far.carriers_ok);
  EXPECT_GT(near.sinr_db, far.sinr_db + 8.0);
}

TEST(Link, Field1TraceShapes) {
  const auto link = make_link();
  Rng rng(16);
  const channel::NodePose pose{2.0, 0.0, 12.0};
  const auto up = link.node_field1_trace(pose, antenna::FsaPort::kA,
                                         LinkDirection::kUplink, rng);
  const auto dn = link.node_field1_trace(pose, antenna::FsaPort::kA,
                                         LinkDirection::kDownlink, rng);
  // Uplink: 3 chirps of 45 us at 1 MS/s; downlink: 2 chirps + gap.
  EXPECT_NEAR(double(up.size()), 135.0, 3.0);
  EXPECT_NEAR(double(dn.size()),
              (2 * 45e-6 + link.config().packet.preamble.field1_gap_s) * 1e6, 3.0);
}

TEST(Link, PacketDownlinkEndToEnd) {
  const auto link = make_link();
  Rng rng(17);
  Rng data(18);
  const auto bits = data.bits(1024);
  const auto r = link.run_packet({2.0, 0.0, 12.0}, LinkDirection::kDownlink, bits, rng);
  EXPECT_EQ(r.requested, LinkDirection::kDownlink);
  ASSERT_TRUE(r.detected.has_value());
  EXPECT_TRUE(r.direction_ok);
  EXPECT_TRUE(r.localization.detected);
  ASSERT_TRUE(r.node_orientation.has_value());
  EXPECT_NEAR(r.node_orientation->orientation_deg, 12.0, 3.0);
  ASSERT_TRUE(r.downlink.has_value());
  EXPECT_EQ(r.downlink->bit_errors, 0u);
  EXPECT_FALSE(r.uplink.has_value());
  EXPECT_GT(r.node_energy_j, 0.0);
  EXPECT_GT(r.timing.total_s, 0.0);
}

TEST(Link, PacketUplinkEndToEnd) {
  const auto link = make_link();
  Rng rng(19);
  Rng data(20);
  const auto bits = data.bits(1024);
  const auto r = link.run_packet({2.0, 0.0, 12.0}, LinkDirection::kUplink, bits, rng);
  EXPECT_TRUE(r.direction_ok);
  ASSERT_TRUE(r.uplink.has_value());
  EXPECT_EQ(r.uplink->bit_errors, 0u);
  EXPECT_FALSE(r.downlink.has_value());
}

TEST(Link, PacketEnergyBudgetMicroJoules) {
  // 18 mW for ~300 us of preamble+payload -> single-digit microjoules: the
  // "low power" headline at packet granularity.
  const auto link = make_link();
  Rng rng(21);
  Rng data(22);
  const auto r = link.run_packet({2.0, 0.0, 12.0}, LinkDirection::kDownlink,
                                 data.bits(1024), rng);
  EXPECT_LT(r.node_energy_j, 20e-6);
  EXPECT_GT(r.node_energy_j, 1e-6);
}

TEST(Link, UplinkPacketCostsMoreEnergyPerSecondThanDownlink) {
  const auto link = make_link();
  Rng r1(23), r2(24);
  Rng data(25);
  const auto bits = data.bits(1024);
  const auto dn = link.run_packet({2.0, 0.0, 12.0}, LinkDirection::kDownlink, bits, r1);
  const auto up = link.run_packet({2.0, 0.0, 12.0}, LinkDirection::kUplink, bits, r2);
  // Per unit payload time uplink burns more (switch toggling).
  EXPECT_GT(up.node_energy_j / up.timing.total_s, dn.node_energy_j / dn.timing.total_s);
}

TEST(Link, PacketEnergyIsPacketNodeEnergy) {
  const auto link = make_link();
  Rng data(26);
  const auto bits = data.bits(512);
  const auto& node = link.node().config();
  for (const auto dir : {LinkDirection::kDownlink, LinkDirection::kUplink}) {
    Rng rng(27);
    const auto r = link.run_packet({2.0, 0.0, 12.0}, dir, bits, rng);
    const double rate = dir == LinkDirection::kDownlink ? link.config().downlink_bit_rate_bps
                                                        : link.config().uplink_bit_rate_bps;
    EXPECT_EQ(r.node_energy_j, packet_node_energy_j(r.timing, dir, node.power, rate / 2.0,
                                                    node.localization_toggle_hz))
        << "direction " << int(dir);
  }
}

// Replays run_packet from its public pieces on a copy of its Rng: the two
// Field-1 port traces, the node estimate from their first chirp, one Field-2
// localization handing off its RX0 beats, the AP estimate from those beats,
// then the OAQFM payload on the carriers that estimate picks. Every draw must
// line up, so the packet simulates exactly one Field 1 and one Field 2.
struct PacketReplay {
  std::optional<LinkDirection> detected;
  std::optional<node::NodeOrientationEstimate> node_orientation;
  ap::LocalizationResult localization;
  ap::ApOrientationResult ap_orientation;
  std::optional<ap::CarrierSelection> carriers;
  std::size_t payload_bit_errors = 0;
  double payload_measured_snr_db = 0.0;
};

PacketReplay replay_packet(const MilBackLink& link, const channel::NodePose& pose,
                           LinkDirection dir, const std::vector<bool>& bits, Rng& rng) {
  using antenna::FsaPort;
  PacketReplay out;
  const auto& pre = link.config().packet.preamble;
  const auto trace_a = link.node_field1_trace(pose, FsaPort::kA, dir, rng);
  const auto trace_b = link.node_field1_trace(pose, FsaPort::kB, dir, rng);
  const double mcu_fs = link.node().mcu().adc().config().sample_rate_hz;
  const double max_a = *std::max_element(trace_a.begin(), trace_a.end());
  const double max_b = *std::max_element(trace_b.begin(), trace_b.end());
  out.detected = detect_direction(max_a >= max_b ? trace_a : trace_b, mcu_fs, pre);
  const auto n = std::size_t(std::lround(pre.field1.duration_s * mcu_fs));
  EXPECT_EQ(n, 45u);
  const std::vector<double> first_a(trace_a.begin(), trace_a.begin() + std::ptrdiff_t(n));
  const std::vector<double> first_b(trace_b.begin(), trace_b.begin() + std::ptrdiff_t(n));
  out.node_orientation = node::estimate_orientation_at_node(first_a, first_b, mcu_fs,
                                                            pre.field1, link.node().fsa());

  const auto& ap = link.access_point();
  ap::ChirpBeats rx0;
  out.localization = ap.localizer().localize(link.channel(), pose, rng, &rx0);
  EXPECT_EQ(rx0.size(), ap.localizer().config().n_chirps);
  out.ap_orientation = ap.orientation_sensor().estimate(link.channel(), rx0, rng);
  if (!out.detected || *out.detected != dir || !out.ap_orientation.valid) return out;

  out.carriers = ap.select_carriers(link.channel().fsa(), out.ap_orientation.orientation_deg);
  if (!out.carriers) return out;
  EXPECT_EQ(out.carriers->mode, ModulationMode::kOaqfm);
  std::vector<bool> rx_bits;
  if (dir == LinkDirection::kDownlink) {
    const auto& dl = ap.downlink();
    const double fs = dl.config().symbol_rate_hz * double(dl.config().oversample);
    const double through =
        link.node().rf_switch(FsaPort::kA).through_power(rf::SwitchState::kAbsorb);
    auto w = dl.synthesize(link.channel(), pose, *out.carriers, symbols_from_bits(bits));
    for (auto& p : w.power_a_w) p *= through;
    for (auto& p : w.power_b_w) p *= through;
    const auto va = link.node().detector(FsaPort::kA).detect(w.power_a_w, fs, rng);
    const auto vb = link.node().detector(FsaPort::kB).detect(w.power_b_w, fs, rng);
    const node::DownlinkDemodConfig demod{.symbol_rate_hz = dl.config().symbol_rate_hz,
                                          .sample_point = 0.75,
                                          .mode = ModulationMode::kOaqfm};
    rx_bits = bits_from_symbols(node::demodulate_downlink(va, vb, fs, demod).symbols);
  } else {
    ap::UplinkRxConfig rx_cfg = ap.config().uplink;
    rx_cfg.symbol_rate_hz =
        link.config().uplink_bit_rate_bps / double(bits_per_symbol(ModulationMode::kOaqfm));
    auto symbols = uplink_pilot(rx_cfg.pilot_symbols);
    const auto data = symbols_from_bits(bits);
    symbols.insert(symbols.end(), data.begin(), data.end());
    const auto reception = ap::UplinkReceiver(rx_cfg).receive(
        link.channel(), pose, *out.carriers, node::build_uplink_schedule(symbols),
        link.node().config().rf_switch, rng);
    rx_bits = bits_from_symbols(reception.symbols);
    out.payload_measured_snr_db =
        std::min(reception.measured_snr_a_db, reception.measured_snr_b_db);
  }
  rx_bits.resize(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    out.payload_bit_errors += std::size_t(bits[i] != rx_bits[i]);
  }
  return out;
}

PacketRunResult expect_packet_matches_replay(const MilBackLink& link,
                                            const channel::NodePose& pose,
                                            LinkDirection dir, std::uint64_t seed) {
  Rng data(seed + 1000);
  const auto bits = data.bits(512);
  Rng rng(seed);
  Rng replay_rng = rng;
  const auto r = link.run_packet(pose, dir, bits, rng);
  const auto e = replay_packet(link, pose, dir, bits, replay_rng);
  // The same number of draws: the next one agrees.
  EXPECT_EQ(rng.engine()(), replay_rng.engine()());

  EXPECT_EQ(r.detected, e.detected);
  EXPECT_EQ(r.node_orientation.has_value(), e.node_orientation.has_value());
  if (r.node_orientation && e.node_orientation) {
    EXPECT_EQ(r.node_orientation->orientation_deg, e.node_orientation->orientation_deg);
    EXPECT_EQ(r.node_orientation->f_peak_a_hz, e.node_orientation->f_peak_a_hz);
    EXPECT_EQ(r.node_orientation->f_peak_b_hz, e.node_orientation->f_peak_b_hz);
  }
  EXPECT_EQ(r.localization.detected, e.localization.detected);
  EXPECT_EQ(r.localization.range_m, e.localization.range_m);
  EXPECT_EQ(r.localization.angle_deg, e.localization.angle_deg);
  EXPECT_EQ(r.localization.detection_snr_db, e.localization.detection_snr_db);
  EXPECT_EQ(r.localization.steered_azimuth_deg, e.localization.steered_azimuth_deg);
  EXPECT_EQ(r.ap_orientation.valid, e.ap_orientation.valid);
  EXPECT_EQ(r.ap_orientation.orientation_deg, e.ap_orientation.orientation_deg);
  EXPECT_EQ(r.ap_orientation.f_peak_hz, e.ap_orientation.f_peak_hz);

  const bool payload = r.direction_ok;
  EXPECT_EQ(r.downlink.has_value(), payload && dir == LinkDirection::kDownlink);
  EXPECT_EQ(r.uplink.has_value(), payload && dir == LinkDirection::kUplink);
  if (!payload) return r;
  EXPECT_TRUE(e.carriers.has_value());
  if (!e.carriers) return r;
  const bool carriers_ok = r.downlink ? r.downlink->carriers_ok : r.uplink->carriers_ok;
  const double orient_deg = r.downlink ? r.downlink->orientation_estimate_deg
                                       : r.uplink->orientation_estimate_deg;
  const auto& carriers = r.downlink ? r.downlink->carriers : r.uplink->carriers;
  const std::size_t bit_errors = r.downlink ? r.downlink->bit_errors : r.uplink->bit_errors;
  EXPECT_TRUE(carriers_ok);
  EXPECT_EQ(orient_deg, r.ap_orientation.orientation_deg);
  EXPECT_EQ(carriers.f_a_hz, e.carriers->f_a_hz);
  EXPECT_EQ(carriers.f_b_hz, e.carriers->f_b_hz);
  EXPECT_EQ(bit_errors, e.payload_bit_errors);
  if (r.uplink) {
    EXPECT_EQ(r.uplink->measured_snr_db, e.payload_measured_snr_db);
  }
  return r;
}

TEST(Link, PacketSimulatesOnePreamble) {
  const auto link = make_link();
  std::uint64_t seed = 30;
  for (const auto dir : {LinkDirection::kDownlink, LinkDirection::kUplink}) {
    for (const channel::NodePose pose : {channel::NodePose{2.0, 0.0, 12.0},
                                         channel::NodePose{3.5, -12.0, -14.0}}) {
      SCOPED_TRACE(testing::Message() << "direction " << int(dir) << " orientation "
                                      << pose.orientation_deg);
      expect_packet_matches_replay(link, pose, dir, seed++);
    }
  }
}

TEST(Link, PacketReportsApOrientationWithoutPayload) {
  constexpr double kFar = 12.0;
  // At 12 m the node misses its Field-1 chirps, so no payload runs, yet the
  // AP still senses the orientation on Field 2 and reports it.
  const auto link = make_link();
  for (const auto dir : {LinkDirection::kDownlink, LinkDirection::kUplink}) {
    SCOPED_TRACE(testing::Message() << "direction " << int(dir));
    const auto r = expect_packet_matches_replay(link, {kFar, 0.0, 12.0}, dir, 40);
    EXPECT_FALSE(r.direction_ok);
    EXPECT_TRUE(r.ap_orientation.valid);
    EXPECT_NEAR(r.ap_orientation.orientation_deg, 12.0, 3.0);
  }
}

}  // namespace
}  // namespace milback::core
