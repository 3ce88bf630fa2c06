// Scale smoke: a 16-cell, 16,000-node campus must complete a short sharded
// run well inside the CI wall-clock ceiling (the ctest TIMEOUT plus the
// dedicated scale-smoke CI job's own ceiling) and stay inside the per-node
// memory budget the README commits to. This is the cheap tripwire for
// accidental O(n^2) regressions in the SoA/pool path — the full-size
// campus is bench/e2e's campus_100k workload, where it is measured.
#include <gtest/gtest.h>

#include <string>

#include "milback/cell/multi_cell.hpp"

namespace milback::cell {
namespace {

TEST(ScaleSmoke, SixteenCellsSixteenThousandNodes) {
  Rng env(5);
  MultiCellConfig cfg;
  // 4x4 grid, 40 m pitch.
  for (std::size_t gy = 0; gy < 4; ++gy) {
    for (std::size_t gx = 0; gx < 4; ++gx) {
      cfg.aps.push_back({40.0 * double(gx), 40.0 * double(gy)});
    }
  }
  cfg.coverage_radius_m = 15.0;
  cfg.epoch_s = 0.05;
  cfg.frequency_channels = 4;
  // Pinned sweep period: the scenario budget is ~2 sweeps per cell — the
  // smoke gates wiring and scaling, not steady-state service detail.
  cfg.cell.service_period_s = 0.05;
  MultiCellEngine engine(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(env)),
                         std::move(cfg));

  constexpr std::size_t kNodes = 16000;
  engine.reserve_nodes(kNodes / 16);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const std::size_t home = i % 16;
    const double hx = 40.0 * double(home % 4);
    const double hy = 40.0 * double(home / 4);
    engine.add_node("n-" + std::to_string(i),
                    {hx + 0.5 + 0.05 * double(i % 37),
                     hy + 0.07 * double(i % 41) - 1.5,
                     -20.0 + 1.7 * double(i % 25)},
                    5e3 + 1e3 * double(i % 3));
  }

  const MultiCellReport report = engine.run(0.1, 2026);
  EXPECT_EQ(report.cells.size(), 16u);
  EXPECT_EQ(report.peak_population, kNodes);
  // Every cell actually ran service and moved traffic.
  for (const auto& cell : report.cells) {
    EXPECT_GE(cell.service_rounds, 1u);
    EXPECT_GT(cell.aggregate_goodput_bps, 0.0);
  }
  EXPECT_GT(report.aggregate_goodput_bps, 0.0);

  // Loose per-node memory tripwire: at 1k nodes per cell the slab and heap
  // granularity still shows, so this bound is the O(n)-blowup guard — the
  // full-scale figure is campus_100k's outcome.bytes_per_node in bench/e2e
  // (25 cells x 4000 nodes).
  const double bytes_per_node =
      double(engine.memory_bytes()) / double(kNodes);
  EXPECT_LE(bytes_per_node, 512.0);
}

}  // namespace
}  // namespace milback::cell
