// Extension — SDM network scaling.
//
// Section 7 sketches multi-node support via spatial division multiplexing.
// This bench populates the sector with growing node counts (random bearings
// in +-35 deg), runs full uplink and downlink rounds, and reports how slots,
// per-node goodput and aggregate goodput scale — the congestion curve of a
// MilBack cell.
#include "bench_common.hpp"

#include "milback/cell/cell_engine.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Extension", "SDM scaling: nodes vs slots vs aggregate goodput", seed);

  Table t({"nodes", "SDM slots", "UL aggregate (Mbps)", "UL worst-node (Mbps)",
           "DL aggregate (Mbps)", "mean eff. SNR (dB)"});
  CsvWriter csv(CsvWriter::env_dir(), "ext_sdm_scaling",
                {"nodes", "slots", "ul_agg_mbps", "ul_worst_mbps", "dl_agg_mbps"});

  for (const std::size_t n_nodes : {1u, 2u, 4u, 6u, 8u, 12u}) {
    // Stateless streams: the room really is identical for every population
    // size, and placement/round draws depend only on (seed, n_nodes).
    // milback-analyze: no-rng(the environment is intentionally identical across population sizes; placement/round streams below key on n_nodes)
    auto env_rng = Rng::stream(seed, std::uint64_t{1});
    cell::CellEngine net(channel::BackscatterChannel::make_default(
        channel::Environment::indoor_office(env_rng)));
    auto place = Rng::stream(seed, std::uint64_t{1000}, n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      net.add_node("n" + std::to_string(i),
                   {.pose = {place.uniform(1.5, 6.0), place.uniform(-35.0, 35.0),
                             place.uniform(-25.0, 25.0)}});
    }

    auto rng = Rng::stream(seed, std::uint64_t{2000}, n_nodes);
    const auto ul = net.run_uplink_round(400, rng);
    const auto dl = net.run_downlink_round(400, rng);

    double worst = 1e18, snr_sum = 0.0;
    for (const auto& nr : ul.nodes) {
      worst = std::min(worst, nr.goodput_bps);
      snr_sum += nr.effective_snr_db;
    }
    if (ul.nodes.empty()) worst = 0.0;

    t.add_row({std::to_string(n_nodes), std::to_string(ul.sdm_slots),
               Table::num(ul.aggregate_goodput_bps / 1e6, 2),
               Table::num(worst / 1e6, 2),
               Table::num(dl.aggregate_goodput_bps / 1e6, 2),
               ul.nodes.empty() ? "-" : Table::num(snr_sum / double(ul.nodes.size()), 1)});
    csv.row({double(n_nodes), double(ul.sdm_slots), ul.aggregate_goodput_bps / 1e6,
             worst / 1e6, dl.aggregate_goodput_bps / 1e6});
  }
  t.print(std::cout);
  std::cout << "\nReading: aggregate goodput holds while bearings stay separable\n"
               "(few slots); as the sector saturates, slot count grows and\n"
               "per-node goodput falls ~1/slots — SDM buys concurrency only up to\n"
               "the beamwidth-limited node density.\n";
  return 0;
}
