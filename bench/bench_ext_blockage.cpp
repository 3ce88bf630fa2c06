// Extension — body-blockage sensitivity.
//
// mmWave links die behind obstructions: a human torso costs ~20-30 dB at
// 28 GHz. MilBack's asymmetry makes this interesting — downlink pays the
// blockage once, uplink and localization pay it twice. This bench sweeps the
// one-way blockage loss and reports each function's surviving range,
// quantifying the deployment envelope the paper's LoS-only evaluation
// implies.
#include "bench_common.hpp"

#include "milback/core/ber.hpp"
#include "milback/core/link.hpp"
#include "milback/util/units.hpp"

using namespace milback;

namespace {

// Largest distance (0.5 m grid) at which a predicate holds.
template <typename Pred>
double max_range(Pred&& ok) {
  double best = 0.0;
  for (double d = 0.5; d <= 14.0; d += 0.5) {
    if (ok(d)) best = d;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Extension", "Blockage: surviving range per function vs one-way loss",
                seed);

  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};

  Table t({"blockage (dB)", "downlink range (m)", "uplink 10M range (m)",
           "radar det. range (m)"});
  CsvWriter csv(CsvWriter::env_dir(), "ext_blockage",
                {"blockage_db", "dl_range", "ul_range", "radar_range"});

  for (double block : {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
    channel::ChannelConfig cfg;
    cfg.blockage_loss_db = block;
    const auto chan = channel::BackscatterChannel::make_default(
        channel::Environment::anechoic(), cfg);
    const auto pair = chan.fsa().carrier_pair_for_angle(15.0);
    if (!pair) return 1;

    // Downlink usable: SINR supports BER < 1e-6 at the full rate.
    const double dl_range = max_range([&](double d) {
      const channel::NodePose pose{d, 0.0, 15.0};
      const auto b = channel::compute_downlink_budget(chan, pose, antenna::FsaPort::kA,
                                                      pair->first, pair->second, det, sw,
                                                      1e9);
      return core::ber_ook_noncoherent(db2lin(b.sinr_db)) < 1e-6;
    });
    // Uplink usable at 10 Mbps: BER < 1e-3 (the paper's edge operating point).
    const double ul_range = max_range([&](double d) {
      const channel::NodePose pose{d, 0.0, 15.0};
      const auto b = channel::compute_uplink_budget(chan, pose, antenna::FsaPort::kA,
                                                    pair->first, sw, 10e6);
      return core::ber_ook_noncoherent(db2lin(b.snr_db)) < 1e-3;
    });
    // Radar detectable: post-processing SNR > 12 dB.
    const double radar_range = max_range([&](double d) {
      const channel::NodePose pose{d, 0.0, 15.0};
      const auto b = channel::compute_radar_budget(chan, pose, sw, 18e-6, 50e6);
      return b.snr_db > 12.0;
    });

    t.add_row({Table::num(block, 0), Table::num(dl_range, 1), Table::num(ul_range, 1),
               Table::num(radar_range, 1)});
    csv.row({block, dl_range, ul_range, radar_range});
  }
  t.print(std::cout);
  std::cout << "\nReading: the two-way functions (uplink, localization) lose range\n"
               "twice as fast in dB terms; past ~20 dB of body loss the node is\n"
               "still reachable on the downlink but can no longer be localized —\n"
               "a deployment should plan AP placement for backscatter, not just\n"
               "coverage.\n";
  return 0;
}
