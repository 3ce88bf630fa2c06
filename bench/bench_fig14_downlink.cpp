// Figure 14 — Downlink performance (SINR vs distance, 1 GHz bandwidth).
//
// Paper setup: node fixed per distance; the AP senses orientation, picks the
// OAQFM carriers and sends data; SINR measured at the micro-controller input
// (interference = the other port's tone through sidelobes; noise = detector
// noise over 1 GHz). Paper result: SINR falls with distance but stays above
// 12 dB at 10 m — enough for BER < 1e-8; max rate 36 Mbps (detector-limited).
#include "bench_common.hpp"

#include "milback/core/ber.hpp"
#include "milback/core/link.hpp"
#include "milback/util/units.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 14", "Downlink SINR vs distance (1 GHz measurement bandwidth)",
                seed);

  Rng master(seed);
  auto env_rng = master.fork(1);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  Table t({"distance (m)", "SINR (dB)", "SNR-only (dB)", "SIR-only (dB)",
           "analytic BER", "measured BER (4k bits)"});
  CsvWriter csv(CsvWriter::env_dir(), "fig14_downlink",
                {"distance_m", "sinr_db", "snr_db", "sir_db", "ber"});

  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const double orient = 15.0;
  const auto pair = link.channel().fsa().carrier_pair_for_angle(orient);
  if (!pair) return 1;

  std::size_t p = 0;
  for (double d : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0}) {
    const channel::NodePose pose{d, 0.0, orient};
    const auto budget_a = channel::compute_downlink_budget(
        link.channel(), pose, antenna::FsaPort::kA, pair->first, pair->second, det, sw,
        link.config().downlink_measurement_bw_hz);
    const auto budget_b = channel::compute_downlink_budget(
        link.channel(), pose, antenna::FsaPort::kB, pair->second, pair->first, det, sw,
        link.config().downlink_measurement_bw_hz);
    const double sinr = std::min(budget_a.sinr_db, budget_b.sinr_db);
    const double snr = std::min(budget_a.snr_db, budget_b.snr_db);
    const double sir = std::min(budget_a.sir_db, budget_b.sir_db);
    const double ber = core::ber_oaqfm(db2lin(budget_a.sinr_db), db2lin(budget_b.sinr_db));

    // Measured BER through the waveform pipeline (4000 bits; resolves down
    // to ~1e-3 — deeper BERs report as 0 and rely on the analytic value).
    auto rng = Rng::stream(seed, p, std::uint64_t{0});
    auto data = Rng::stream(seed, p, std::uint64_t{1});
    const auto run = link.run_downlink(pose, data.bits(4000), rng);

    t.add_row({Table::num(d, 0), Table::num(sinr, 1), Table::num(snr, 1),
               Table::num(sir, 1), Table::sci(ber, 1),
               run.carriers_ok ? Table::sci(run.ber, 1) : "n/a"});
    csv.row({d, sinr, snr, sir, ber});
    ++p;
  }
  t.print(std::cout);
  std::cout << "\nPaper: SINR limited by cross-port sidelobe interference (~25 dB cap)\n"
               "at short range, detector-noise limited beyond; > 12 dB at 10 m,\n"
               "supporting BER < 1e-8; maximum downlink rate 36 Mbps set by the\n"
               "envelope detector's rise/fall time.\n";
  return 0;
}
