// Extension — dense OAQFM constellations (paper Section 9.4: "define denser
// OAQFM modulation schemes, where each symbol represents more bits by
// considering different amplitudes for each tone").
//
// Sweeps the per-tone level count L over distance: bits/symbol double per
// level doubling, but every doubling costs ~20 log10((L-1)/(L'-1)) dB of
// decision distance in the detector's power domain. The bench reports the
// achievable downlink rate at each distance for L = 2/4/8 and the crossover
// ranges, plus an end-to-end waveform verification at short range.
#include "bench_common.hpp"

#include "milback/core/ber.hpp"
#include "milback/core/link.hpp"
#include "milback/core/oaqfm_dense.hpp"
#include "milback/util/units.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Extension", "Dense OAQFM: level count vs rate vs range", seed);

  Rng master(seed);
  auto env_rng = master.fork(1);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  std::cout << "Constellation properties (detector-power-uniform levels):\n";
  Table c({"levels/tone", "bits/symbol", "rate @18 Msym/s", "SINR penalty vs L=2"});
  for (unsigned L : {2u, 4u, 8u}) {
    c.add_row({std::to_string(L), std::to_string(core::dense_bits_per_symbol(L)),
               Table::num(18.0 * core::dense_bits_per_symbol(L), 0) + " Mbps",
               Table::num(core::dense_snr_penalty_db(L), 1) + " dB"});
  }
  c.print(std::cout);

  // Decision-level analysis at the detector output: noise lives in the
  // detector's video ENBW (not Fig 14's 1 GHz measurement convention), and
  // the other tone's sidelobe leakage is a small deterministic bias that
  // eats decision margin rather than acting like Gaussian noise.
  std::cout << "\nDecision-margin BER vs distance (orientation 15 deg, video-band "
               "noise, leakage as bias):\n";
  Table t({"distance (m)", "margin SNR L=2 (dB)", "BER L=2", "BER L=4", "BER L=8",
           "best L @ BER<1e-6"});
  CsvWriter csv(CsvWriter::env_dir(), "ext_dense_oaqfm",
                {"distance_m", "ber2", "ber4", "ber8"});
  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const auto pair = link.channel().fsa().carrier_pair_for_angle(15.0);
  if (!pair) return 1;

  const double enbw = kPi / 2.0 * det.config().video_bandwidth_hz;
  // Dominant dense-OAQFM impairment: the node's slicer calibrates full scale
  // from the burst prefix, but between calibration and payload the received
  // power drifts as the node's orientation moves against the ~1 dB/deg FSA
  // pattern slope. A modest 0.25 deg of intra-packet drift is ~5% of full
  // scale — negligible for L=2, but it consumes most of L=8's 7% half-gap.
  const double kGainDrift = 0.05;  // fractional full-scale uncertainty
  auto margin_ber = [&](const channel::NodePose& pose, unsigned L) {
    const double through = sw.through_power(rf::SwitchState::kAbsorb);
    const double p_sig =
        dbm2watt(link.channel().incident_port_power_dbm(antenna::FsaPort::kA,
                                                        pair->first, pose)) *
        through;
    const double p_int =
        dbm2watt(link.channel().incident_port_power_dbm(
            antenna::other_port(antenna::FsaPort::kB), pair->second, pose)) *
        through;
    const double sigma_p =
        det.input_power_for_voltage(std::sqrt(det.noise_power_v2(enbw)));
    const double gap = p_sig / double(L - 1);  // level spacing in power
    // Leakage bias and gain drift both eat decision margin deterministically.
    const double margin = gap / 2.0 - p_int - kGainDrift * p_sig;
    if (margin <= 0.0) return 0.5;
    const double pser = 2.0 * (1.0 - 1.0 / double(L)) *
                        core::q_function(margin / sigma_p);
    return std::min(0.5, pser / (double(core::dense_bits_per_symbol(L)) / 2.0));
  };

  for (double d : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0}) {
    const channel::NodePose pose{d, 0.0, 15.0};
    const double b2 = margin_ber(pose, 2);
    const double b4 = margin_ber(pose, 4);
    const double b8 = margin_ber(pose, 8);
    unsigned best = 0;
    if (b8 < 1e-6) best = 8;
    else if (b4 < 1e-6) best = 4;
    else if (b2 < 1e-6) best = 2;
    // Margin SNR for L=2 as the reference column.
    const double through = sw.through_power(rf::SwitchState::kAbsorb);
    const double p_sig =
        dbm2watt(link.channel().incident_port_power_dbm(antenna::FsaPort::kA,
                                                        pair->first, pose)) *
        through;
    const double sigma_p =
        det.input_power_for_voltage(std::sqrt(det.noise_power_v2(enbw)));
    t.add_row({Table::num(d, 0), Table::num(lin2db(p_sig / sigma_p), 1),
               Table::sci(b2, 1), Table::sci(b4, 1), Table::sci(b8, 1),
               best ? std::to_string(best) + " (" +
                          Table::num(18.0 * core::dense_bits_per_symbol(best), 0) +
                          " Mbps)"
                    : "none"});
    csv.row({d, b2, b4, b8});
  }
  t.print(std::cout);

  std::cout << "\nWaveform verification (2000 bits through the full pipeline):\n";
  Table v({"levels", "distance (m)", "bit errors", "measured BER"});
  std::size_t l_idx = 0;
  for (unsigned L : {2u, 4u, 8u}) {
    std::size_t d_idx = 0;
    for (double d : {1.5, 4.0}) {
      auto rng = Rng::stream(seed, l_idx, d_idx, std::uint64_t{0});
      auto data = Rng::stream(seed, l_idx, d_idx++, std::uint64_t{1});
      const auto bits = data.bits(2000);
      const auto r = link.run_downlink_dense({d, 0.0, 15.0}, bits, L, rng);
      v.add_row({std::to_string(L), Table::num(d, 1),
                 r.carriers_ok ? std::to_string(r.bit_errors) : "n/a",
                 r.carriers_ok ? Table::sci(r.ber, 1) : "n/a"});
    }
    ++l_idx;
  }
  v.print(std::cout);
  std::cout << "\nReading: L = 4 doubles the peak rate to 72 Mbps and holds BER\n"
               "< 1e-6 across the full deployment range; L = 8 (108 Mbps) works\n"
               "only out to ~6 m because ~5% gain drift consumes most of its 7%\n"
               "half-gap — the amplitude dimension is usable but shallow, the\n"
               "trade the paper's Section 9.4 remark anticipates. (The waveform\n"
               "rows stay error-free because the simulated slicer recalibrates\n"
               "full scale every burst; the margin table adds the inter-burst\n"
               "drift a real deployment sees.)\n";
  return 0;
}
