// Shared implementation of the Fig 15 uplink benches (15a = 10 Mbps,
// 15b = 40 Mbps).
//
// Paper setup: the AP senses orientation, transmits the two-tone query, the
// node OAQFM-modulates it by switching its ports; the AP downconverts each
// tone, filters and slices. SNR and the corresponding BER are reported per
// distance. Paper anchors: at 10 Mbps, BER markers 1e-10 / 2e-8 / 2e-4 (the
// last near 8 m); at 40 Mbps (~6 dB higher noise floor), 8e-4 / 3e-3 with
// usable range ~6 m.
#pragma once

#include "bench_common.hpp"

#include "milback/core/ber.hpp"
#include "milback/core/link.hpp"
#include "milback/util/units.hpp"

namespace milback::bench {

inline int run_fig15(int argc, char** argv, double bit_rate_bps, const char* fig_id,
                     double max_distance_m) {
  const auto seed = parse_seed(argc, argv);
  banner(fig_id, std::string("Uplink SNR + BER vs distance at ") +
                     Table::num(bit_rate_bps / 1e6, 0) + " Mbps",
         seed);

  Rng master(seed);
  auto env_rng = master.fork(1);
  const core::MilBackLink link(make_indoor_channel(env_rng), core::LinkConfig{});

  Table t({"distance (m)", "SNR (dB)", "analytic BER", "measured BER (4k bits)",
           "measured SNR (dB)"});
  CsvWriter csv(CsvWriter::env_dir(),
                std::string("fig15_uplink_") + Table::num(bit_rate_bps / 1e6, 0) + "mbps",
                {"distance_m", "snr_db", "ber"});

  const double orient = 15.0;
  const auto pair = link.channel().fsa().carrier_pair_for_angle(orient);
  if (!pair) return 1;

  std::vector<double> distances;
  for (double d = 1.0; d <= max_distance_m + 0.1; d += 1.0) distances.push_back(d);

  struct Row {
    double distance_m = 0.0;
    double snr_db = 0.0;
    double analytic_ber = 0.0;
    core::UplinkRunResult run{};
  };

  const sim::TrialRunner runner;
  const auto rows = runner.map<Row>(distances.size(), [&](std::size_t p) {
    const double d = distances[p];
    const channel::NodePose pose{d, 0.0, orient};
    const rf::RfSwitch sw{rf::RfSwitchConfig{}};
    const auto budget_a = channel::compute_uplink_budget(
        link.channel(), pose, antenna::FsaPort::kA, pair->first, sw, bit_rate_bps);
    const auto budget_b = channel::compute_uplink_budget(
        link.channel(), pose, antenna::FsaPort::kB, pair->second, sw, bit_rate_bps);
    Row row;
    row.distance_m = d;
    row.snr_db = std::min(budget_a.snr_db, budget_b.snr_db);
    row.analytic_ber =
        core::ber_oaqfm(db2lin(budget_a.snr_db), db2lin(budget_b.snr_db));

    auto rng = Rng::stream(seed, p, std::uint64_t{0});
    auto data = Rng::stream(seed, p, std::uint64_t{1});
    row.run = link.run_uplink(pose, data.bits(4000), rng, bit_rate_bps);
    return row;
  });

  for (const auto& row : rows) {
    t.add_row({Table::num(row.distance_m, 0), Table::num(row.snr_db, 1),
               Table::sci(row.analytic_ber, 1),
               row.run.carriers_ok ? Table::sci(row.run.ber, 1) : "n/a",
               row.run.carriers_ok ? Table::num(row.run.measured_snr_db, 1) : "n/a"});
    csv.row({row.distance_m, row.snr_db, row.analytic_ber});
  }
  t.print(std::cout);
  return 0;
}

}  // namespace milback::bench
