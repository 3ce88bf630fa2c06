// Quickstart — the MilBack public API in one sitting.
//
// Builds a channel (AP hardware + dual-port FSA + indoor clutter), wraps it
// in a MilBackLink, and walks the full paper workflow for one node:
//   1. localize it (range + angle, Field-2 FMCW burst),
//   2. sense its orientation from both ends (Field 1 / reflection spectrum),
//   3. pick OAQFM carriers and push a downlink payload,
//   4. pull an uplink payload,
//   5. run a complete Section-7 packet and read the energy bill.
//
// Build & run:  ./build/examples/quickstart [seed]
#include <iostream>

#include "milback/channel/link_budget.hpp"
#include "milback/core/link.hpp"
#include "milback/util/table.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  Rng master(seed);

  // --- 1. Assemble the world: AP hardware, FSA node antenna, cluttered room.
  auto env_rng = master.fork(1);
  auto channel = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng));
  core::MilBackLink link(std::move(channel), core::LinkConfig{});

  // Ground truth the simulation knows but the AP must discover:
  const channel::NodePose pose{.distance_m = 3.2, .azimuth_deg = 6.0,
                               .orientation_deg = 14.0};
  std::cout << "Ground truth: node at " << pose.distance_m << " m, bearing "
            << pose.azimuth_deg << " deg, orientation " << pose.orientation_deg
            << " deg\n\n";

  // --- 2. Localize (Section 5.1): five sawtooth chirps, node toggling.
  auto rng = master.fork(2);
  const auto fix = link.localize(pose, rng);
  if (!fix.detected) {
    std::cout << "localization failed - node not detected\n";
    return 1;
  }
  std::cout << "[localize]    range = " << Table::num(fix.range_m, 3) << " m, angle = "
            << Table::num(fix.angle_deg, 2) << " deg (detection SNR "
            << Table::num(fix.detection_snr_db, 1) << " dB)\n";

  // --- 3. Orientation, both ends (Section 5.2).
  const auto ap_orient = link.sense_orientation_at_ap(pose, rng);
  const auto node_orient = link.sense_orientation_at_node(pose, rng);
  std::cout << "[orientation] AP estimate   = "
            << (ap_orient.valid ? Table::num(ap_orient.orientation_deg, 2) : "n/a")
            << " deg\n"
            << "[orientation] node estimate = "
            << (node_orient ? Table::num(node_orient->orientation_deg, 2) : "n/a")
            << " deg\n";

  // --- 4. Downlink (Sections 6.1-6.2): OAQFM over orientation-chosen tones.
  auto payload_rng = master.fork(3);
  const auto tx_bits = payload_rng.bits(1024);
  const auto dl = link.run_downlink(pose, tx_bits, rng);
  std::cout << "[downlink]    carriers fA = " << Table::num(dl.carriers.f_a_hz / 1e9, 3)
            << " GHz, fB = " << Table::num(dl.carriers.f_b_hz / 1e9, 3) << " GHz ("
            << (dl.mode == core::ModulationMode::kOaqfm ? "OAQFM" : "OOK") << ")\n"
            << "[downlink]    " << dl.bits_sent << " bits, " << dl.bit_errors
            << " errors, SINR " << Table::num(dl.sinr_db, 1) << " dB\n";

  // --- 5. Uplink (Section 6.3): node backscatters the two-tone query.
  const auto ul = link.run_uplink(pose, tx_bits, rng);
  std::cout << "[uplink]      " << ul.bits_sent << " bits, " << ul.bit_errors
            << " errors, budget SNR " << Table::num(ul.snr_db, 1)
            << " dB, measured " << Table::num(ul.measured_snr_db, 1) << " dB\n";

  // --- 6. Full packet (Section 7): preamble signalling + payload + energy.
  const auto pkt = link.run_packet(pose, core::LinkDirection::kUplink, tx_bits, rng);
  std::cout << "[packet]      direction detected "
            << (pkt.direction_ok ? "correctly" : "INCORRECTLY") << "; total "
            << Table::num(pkt.timing.total_s * 1e6, 1) << " us, node energy "
            << Table::num(pkt.node_energy_j * 1e6, 2) << " uJ\n\n";

  // --- 7. Peek inside the link budget (what made all this possible).
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const auto budget = channel::compute_uplink_budget(link.channel(), pose,
                                                     antenna::FsaPort::kA,
                                                     dl.carriers.f_a_hz, sw, 10e6);
  std::cout << "Uplink budget breakdown (tone A):\n"
            << channel::format_terms(channel::uplink_budget_terms(
                   link.channel(), pose, antenna::FsaPort::kA, dl.carriers.f_a_hz, sw))
            << "  => received " << Table::num(budget.rx_signal_dbm, 1)
            << " dBm against " << Table::num(budget.noise_dbm, 1) << " dBm noise = "
            << Table::num(budget.snr_db, 1) << " dB SNR\n";
  return 0;
}
