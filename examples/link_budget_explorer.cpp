// Link-budget explorer — a developer/installer CLI.
//
// Takes a node pose on the command line and prints everything the models
// predict for it: the OAQFM carrier pair, the full uplink/downlink budget
// term-by-term, localization detectability, achievable rates (incl. dense
// OAQFM and FEC options), and node energy cost — the quickest way to answer
// "what would MilBack do HERE?".
//
// Usage:  ./build/examples/link_budget_explorer [distance_m] [orientation_deg]
//         defaults: 4.0 m, 15 deg
#include <cstdlib>
#include <iostream>

#include "milback/channel/link_budget.hpp"
#include "milback/core/ber.hpp"
#include "milback/core/fec.hpp"
#include "milback/core/oaqfm_dense.hpp"
#include "milback/node/power_model.hpp"
#include "milback/util/table.hpp"
#include "milback/util/units.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const double distance = argc > 1 ? std::strtod(argv[1], nullptr) : 4.0;
  const double orientation = argc > 2 ? std::strtod(argv[2], nullptr) : 15.0;

  const auto chan =
      channel::BackscatterChannel::make_default(channel::Environment::anechoic());
  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const channel::NodePose pose{distance, 0.0, orientation};

  std::cout << "MilBack link budget @ " << distance << " m, orientation " << orientation
            << " deg\n==========================================================\n\n";

  const auto pair = chan.fsa().carrier_pair_for_angle(orientation);
  if (!pair) {
    std::cout << "Orientation is outside the FSA scan range (";
    const auto [lo, hi] = chan.fsa().scan_range_deg();
    std::cout << Table::num(lo, 1) << ".." << Table::num(hi, 1)
              << " deg) - no carrier pair exists. No service.\n";
    return 1;
  }
  const bool ook = chan.fsa().normal_incidence(orientation, 200e6);
  std::cout << "OAQFM carriers: fA = " << Table::num(pair->first / 1e9, 3)
            << " GHz, fB = " << Table::num(pair->second / 1e9, 3) << " GHz"
            << (ook ? "  [degenerate -> OOK fallback]" : "") << "\n\n";

  // --- Downlink ---
  const auto dl = channel::compute_downlink_budget(chan, pose, antenna::FsaPort::kA,
                                                   pair->first, pair->second, det, sw,
                                                   1e9);
  std::cout << "Downlink budget (port A):\n"
            << channel::format_terms(channel::downlink_budget_terms(
                   chan, pose, antenna::FsaPort::kA, pair->first, sw))
            << "  signal " << Table::num(dl.signal_dbm, 1) << " dBm | interference "
            << Table::num(dl.interference_dbm, 1) << " dBm | det. noise "
            << Table::num(dl.detector_noise_dbm, 1) << " dBm\n  SINR "
            << Table::num(dl.sinr_db, 1) << " dB (SNR " << Table::num(dl.snr_db, 1)
            << ", SIR " << Table::num(dl.sir_db, 1) << ")\n\n";

  // --- Uplink ---
  const auto ul10 = channel::compute_uplink_budget(chan, pose, antenna::FsaPort::kA,
                                                   pair->first, sw, 10e6);
  const auto ul40 = channel::compute_uplink_budget(chan, pose, antenna::FsaPort::kA,
                                                   pair->first, sw, 40e6);
  std::cout << "Uplink budget (tone A):\n"
            << channel::format_terms(channel::uplink_budget_terms(
                   chan, pose, antenna::FsaPort::kA, pair->first, sw))
            << "  SNR @10 Mbps " << Table::num(ul10.snr_db, 1) << " dB | @40 Mbps "
            << Table::num(ul40.snr_db, 1) << " dB\n\n";

  // --- Localization ---
  const auto radar = channel::compute_radar_budget(chan, pose, sw, 18e-6, 50e6);
  std::cout << "Localization: post-processing SNR " << Table::num(radar.snr_db, 1)
            << " dB (" << (radar.snr_db > 15.0 ? "detectable" : "MARGINAL") << ")\n\n";

  // --- Service menu ---
  Table t({"service", "raw BER", "verdict"});
  auto verdict = [](double ber, double threshold) {
    return ber < threshold ? "OK" : "no";
  };
  const double b10 = core::ber_ook_noncoherent(db2lin(ul10.snr_db));
  const double b40 = core::ber_ook_noncoherent(db2lin(ul40.snr_db));
  const double bdl = core::ber_ook_noncoherent(db2lin(dl.sinr_db));
  t.add_row({"downlink 36 Mbps", Table::sci(bdl, 1), verdict(bdl, 1e-6)});
  t.add_row({"downlink 72 Mbps (dense L=4)",
             Table::sci(core::ber_dense_ask(db2lin(dl.sinr_db), 4), 1),
             verdict(core::ber_dense_ask(db2lin(dl.sinr_db), 4), 1e-6)});
  t.add_row({"uplink 10 Mbps", Table::sci(b10, 1), verdict(b10, 1e-6)});
  t.add_row({"uplink 10 Mbps + Hamming(7,4)",
             Table::sci(core::hamming74_coded_ber(b10), 1),
             verdict(core::hamming74_coded_ber(b10), 1e-6)});
  t.add_row({"uplink 40 Mbps", Table::sci(b40, 1), verdict(b40, 1e-6)});
  t.add_row({"uplink 40 Mbps + Hamming(7,4)",
             Table::sci(core::hamming74_coded_ber(b40), 1),
             verdict(core::hamming74_coded_ber(b40), 1e-6)});
  t.print(std::cout);

  // --- Node cost ---
  const node::PowerModelConfig pw;
  std::cout << "\nNode cost: downlink "
            << Table::num(node::node_power_w(node::NodeMode::kDownlink, pw) * 1e3, 1)
            << " mW, uplink @40 Mbps "
            << Table::num(node::node_power_w(node::NodeMode::kUplink, pw, 20e6) * 1e3, 1)
            << " mW (MCU " << Table::num(pw.mcu_power_w * 1e3, 2) << " mW separate).\n";
  return 0;
}
