// Campus network scenario — a sharded multi-cell deployment with roaming.
//
// The paper networks tens of tags under one AP; this example scales the
// same physics to a small campus: a 2x2 grid of APs on 40 m centers,
// frequency reuse 2, two thousand tags parked near their home APs, and a
// courier fleet that trundles between buildings mid-run — crossing coverage
// boundaries, handing off with their unfinished backlog in flight, and
// raising the co-channel noise floor for everyone they leave behind.
// Every building shares the same interior motif: a corridor wall 1.2 m
// past the AP plus a foot-traffic blocker pacing the lobby. The wall feeds
// each cell's PathSet a first-order specular reflector, so when the pacing
// blocker (or a scheduled blockage episode) severs a tag's direct ray, the
// link budget falls back to the surviving wall bounce instead of dropping
// to zero — couriers walking behind the crowd keep draining their backlog
// on the reflected path.
// The run prints the whole-network report plus the per-node memory
// footprint of the simulation state. At this small scale fixed costs
// (engine objects, 1024-element slab granularity) dominate the per-node
// figure; ScaleSmoke bounds it at 16k nodes and bench/e2e's campus_100k
// reports the amortized number at 100k nodes (outcome.bytes_per_node).
//
// Build & run:  ./build/examples/campus_network [seed]
#include <cstdlib>
#include <iostream>
#include <string>

#include "milback/cell/multi_cell.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/util/table.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 47;
  Rng env_rng(5);

  cell::MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {40.0, 0.0}, {0.0, 40.0}, {40.0, 40.0}};
  cfg.coverage_radius_m = 15.0;
  cfg.epoch_s = 0.02;
  cfg.frequency_channels = 2;  // diagonal AP pairs share a channel
  cfg.cell.service_period_s = 0.02;
  cell::MultiCellEngine campus(
      channel::BackscatterChannel::make_default(
          channel::Environment::indoor_office(env_rng)),
      cfg);

  // 2000 parked tags, 500 per building.
  constexpr std::size_t kTags = 2000;
  campus.reserve_nodes(kTags / 4);
  for (std::size_t i = 0; i < kTags; ++i) {
    const std::size_t home = i % 4;
    const double hx = 40.0 * double(home % 2);
    const double hy = 40.0 * double(home / 2);
    campus.add_node("tag-" + std::to_string(i),
                    {hx + 0.6 + 0.04 * double(i % 53),
                     hy - 1.8 + 0.06 * double(i % 47),
                     -18.0 + 1.3 * double(i % 29)},
                    8e3 + 2e3 * double(i % 4));
  }
  // Interior scene, shared by every building (coordinates are per-cell,
  // AP-centric): a corridor wall grazing the tag cluster 1.2 m past the
  // AP, and a lobby blocker pacing across the AP-cluster line at 1 m/s.
  // The wall is the NLoS lifeline — tags shadowed by the blocker keep a
  // usable budget on the single-bounce reflection.
  channel::MultipathConfig scene;
  scene.walls.push_back({-1.0, 1.2, 5.0, 1.2, 10.0});
  scene.blockers.push_back({2.0, -3.0, 0.0, 1.0, 0.35, 25.0});
  campus.set_multipath(scene);

  // A courier fleet: 20 tags that walk to the horizontally adjacent
  // building mid-shift.
  for (std::size_t k = 0; k < 20; ++k) {
    const std::size_t i = k * 97 % kTags;
    const std::size_t home = i % 4;
    const double hy = 40.0 * double(home / 2);
    const double tx = (home % 2 == 0) ? 37.5 : 2.5;
    campus.schedule_waypoint(i, 0.08 + 0.003 * double(k), {tx, hy + 1.0, 0.0});
  }

  const auto report = campus.run(0.4, seed);

  std::cout << "Campus: 4 APs on 40 m centers, reuse-2, " << kTags
            << " tags, 20 couriers roaming mid-run.\n"
            << "Interior: corridor wall at y = 1.2 m per cell plus a pacing\n"
            << "lobby blocker — shadowed tags ride the wall bounce.\n\n";
  Table t({"cell", "final pop", "sweeps", "goodput (Mbps)", "stable"});
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const auto& cr = report.cells[c];
    t.add_row({std::to_string(c), std::to_string(cr.final_population),
           std::to_string(cr.service_rounds),
           Table::num(cr.aggregate_goodput_bps / 1e6, 2),
           cr.stable ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\n";

  std::cout << "Network: " << report.handoffs << " handoffs over "
            << report.epochs << " epochs; aggregate "
            << Table::num(report.aggregate_goodput_bps / 1e6, 2)
            << " Mbps; worst co-channel noise rise "
            << Table::num(report.max_interference_db, 2) << " dB\n";
  std::cout << "Memory: "
            << Table::num(double(campus.memory_bytes()) / double(kTags), 0)
            << " bytes of simulation state per node"
            << " (fixed slab granularity dominates at 2k nodes;"
            << " ScaleSmoke and campus_100k's outcome.bytes_per_node"
            << " measure it at scale)\n";
  return 0;
}
