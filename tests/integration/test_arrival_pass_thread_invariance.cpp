// Pinned digests of the cell engine's arrival path. Each scenario folds its
// report, its deterministic metric export and (standalone) the pending
// event count and queue-depth gauge at every sweep time into one FNV-1a
// digest. The constants were taken from the per-node arrival events that
// the one arrival pass per sweep replaced, so a moved draw, a reordered
// seq, a changed event count or a changed queue-depth gauge fails here.
// Every scenario runs at 1 and 4 workers; the suite name matches the tsan
// test preset's "ThreadInvariance" filter.
//
//  - Standalone: churn (join, leave, move) lands exactly on sweep times
//    (the pinned period is a power of two, so sweep times sum exactly),
//    with a blockage episode, the relay mesh on, and bursty, constant-rate
//    and zero-rate nodes.
//  - MultiCell: the epoch equals the service period, as in bench/e2e
//    campus_100k, so handoffs land at barriers where a sweep's arrivals are
//    still pending.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "milback/cell/cell_engine.hpp"
#include "milback/cell/multi_cell.hpp"
#include "milback/obs/exporters.hpp"
#include "milback/obs/registry.hpp"

#include "invariance_support.hpp"

namespace milback::cell {
namespace {

void fold(Fnv& f, const CellReport& r) {
  fold_traffic(f, r);
  const auto& m = r.mesh;
  f.add(std::uint64_t{m.nodes.size()});
  f.add(std::uint64_t{m.discoveries});
  f.add(std::uint64_t{m.reroutes});
  f.add(std::uint64_t{m.forwards});
  f.add(std::uint64_t{m.orphan_sweeps});
  f.add(std::uint64_t{m.delivered_chunks});
  f.add(m.relayed_bits);
  f.add(m.dropped_bits);
  f.add(m.peak_relay_queue_bits);
}

// The deterministic export's lines for the metrics `keep` selects by name,
// sorted: the registry keeps every name any earlier run in the process
// interned (zeroed by reset), and assigns ids in first-use order.
template <typename Keep>
std::string scenario_metrics(Keep keep) {
  std::istringstream in(obs::metrics_jsonl(/*include_runtime=*/false));
  constexpr std::string_view kHead = "{\"name\":\"";
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with(kHead)) continue;
    const std::string_view rest = std::string_view(line).substr(kHead.size());
    if (keep(rest.substr(0, rest.find('"')))) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

// Whether `name` continues `prefix` with a cell label ("c<digit>").
bool labeled(std::string_view name, std::string_view prefix) {
  return name.starts_with(prefix) && name.size() > prefix.size() + 1 &&
         name[prefix.size()] == 'c' &&
         std::isdigit(static_cast<unsigned char>(name[prefix.size() + 1])) != 0;
}

channel::BackscatterChannel make_channel() {
  Rng env(5);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env));
}

// 2^-6 s: sweep times k * kPeriodS are exact sums, so churn scheduled at
// those times lands at the same instant as a sweep and its arrivals.
constexpr double kPeriodS = 0.015625;

/// 36 nodes on a rack aisle and a fan: bursty, constant-rate and zero-rate
/// traffic, a far tail only the relay mesh reaches, joins, leaves and moves
/// on sweep times, and a blockage episode over several sweeps. A zero
/// `period_s` derives each sweep's period from its SDM slot times instead,
/// so churn falls between sweeps.
CellEngine build_standalone(double period_s) {
  CellConfig cfg;
  cfg.service_period_s = period_s;
  CellEngine engine(make_channel(), cfg);
  mesh::MeshConfig mc;
  mc.localize_direct = false;
  engine.set_mesh(mc);
  for (std::size_t i = 0; i < 36; ++i) {
    const bool tail = i % 9 == 8;  // 14-18 m out: dark without relays
    const double distance = tail ? 14.0 + 0.5 * double(i % 5) : 1.5 + 0.25 * double(i % 23);
    const double bearing = tail ? 0.0 : -50.0 + 2.9 * double(i);
    const double orientation = -18.0 + 1.7 * double(i % 19);
    const double rate = i % 6 == 5 ? 0.0 : 12e3 + 4e3 * double(i % 4);
    const core::TrafficSpec spec{
        .pose = {distance, bearing, orientation},
        .arrival_rate_bps = rate,
        .burstiness = i % 3 == 0 ? 0.0 : 0.5 + 0.25 * double(i % 4),
    };
    const double join = i % 7 == 3 ? kPeriodS * double(1 + i % 5) : 0.0;
    engine.add_node("arr-" + std::to_string(i), spec, join);
    if (i % 5 == 2) engine.schedule_leave(i, kPeriodS * double(6 + i % 4));
    if (i % 4 == 1) {
      engine.schedule_move(i, kPeriodS * double(3 + i % 6),
                           {distance + 0.75, bearing - 2.0, orientation});
    }
  }
  engine.schedule_blockage(kPeriodS * 4.0, kPeriodS * 8.0, 20.0);
  return engine;
}

std::uint64_t standalone_digest(const char* threads, double period_s) {
  ScopedThreads guard(threads);
  obs::Registry::global().reset();
  obs::set_enabled(true, false);
  auto engine = build_standalone(period_s);
  Fnv f;
  constexpr double kHorizonS = kPeriodS * 14.0;
  engine.begin(kHorizonS, 97);
  // With the pinned period, stepping to each sweep time leaves that sweep
  // and its arrivals pending.
  for (int k = 1; k < 14; ++k) {
    engine.advance_to(kPeriodS * double(k));
    f.add(std::uint64_t{engine.pending_events()});
    f.add(std::uint64_t{engine.population()});
    f.add(scenario_metrics([](std::string_view name) { return name == "cell.queue_depth"; }));
  }
  const CellReport report = engine.finish();
  fold(f, report);
  f.add(scenario_metrics([](std::string_view name) {
    if (name.starts_with("cell.node.")) return name.starts_with("cell.node.arr-");
    return (name.starts_with("cell.") && !labeled(name, "cell.")) ||
           (name.starts_with("mesh.") && !labeled(name, "mesh."));
  }));
  obs::Registry::global().reset();
  obs::set_enabled(false, false);
  // Sanity: the scenario serves, relays and churns.
  EXPECT_GT(report.service_rounds, 10u);
  EXPECT_GT(report.mesh.forwards, 0u);
  EXPECT_LT(report.final_population, report.peak_population);
  return f.value();
}

/// 2x2 grid, 120 nodes; every eighth node roams across a coverage boundary
/// at a sweep time, a few leave, and reuse-2 couples diagonal cells.
MultiCellEngine build_campus() {
  MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {30.0, 0.0}, {0.0, 30.0}, {30.0, 30.0}};
  cfg.coverage_radius_m = 12.0;
  cfg.epoch_s = kPeriodS;
  cfg.frequency_channels = 2;
  cfg.interference_node_db = -20.0;
  cfg.cell.service_period_s = kPeriodS;
  MultiCellEngine engine(make_channel(), std::move(cfg));
  for (std::size_t i = 0; i < 120; ++i) {
    const std::size_t home = i % 4;
    const double hx = (home % 2) ? 30.0 : 0.0;
    const double hy = (home / 2) ? 30.0 : 0.0;
    const double px = hx + 1.0 + 0.09 * double(i % 29);
    const double py = hy - 2.0 + 0.13 * double(i % 31);
    const double orient = -15.0 + 1.5 * double(i % 23);
    const double join = i % 11 == 6 ? kPeriodS * double(1 + i % 3) : 0.0;
    engine.add_node("roam-" + std::to_string(i), {px, py, orient},
                    {i % 10 == 9 ? 0.0 : 10e3 + 2e3 * double(i % 5),
                     (i % 3 == 0) ? 0.0 : 1.0},
                    join);
    if (i % 8 == 3) {
      const double tx = (home % 2) ? 3.0 : 27.0;
      engine.schedule_waypoint(i, kPeriodS * double(2 + i % 5), {tx, py, orient});
    }
    if (i % 17 == 5) engine.schedule_leave(i, kPeriodS * double(5 + i % 3));
  }
  return engine;
}

std::uint64_t multi_cell_digest(const char* threads) {
  ScopedThreads guard(threads);
  obs::Registry::global().reset();
  obs::set_enabled(true, false);
  auto engine = build_campus();
  const MultiCellReport report = engine.run(kPeriodS * 12.0, 4242);
  Fnv f;
  f.add(std::uint64_t{report.epochs});
  f.add(std::uint64_t{report.handoffs});
  f.add(std::uint64_t{report.peak_population});
  f.add(report.aggregate_goodput_bps);
  f.add(report.max_interference_db);
  f.add(std::uint64_t{report.stable});
  for (const auto& cell : report.cells) fold(f, cell);
  for (const auto& n : report.nodes) {
    f.add(n.id.view());
    f.add(std::uint64_t{n.home_cell});
    f.add(std::uint64_t{n.final_cell});
    f.add(std::uint64_t{n.handoffs});
    f.add(n.offered_bits);
    f.add(n.delivered_bits);
    f.add(n.final_queue_bits);
    f.add(std::uint64_t{n.rounds_served});
  }
  f.add(scenario_metrics([](std::string_view name) {
    for (const char* cell : {"cell.c0.", "cell.c1.", "cell.c2.", "cell.c3."}) {
      if (name.starts_with(cell)) return true;
    }
    return name.starts_with("cell.node.roam-") || name.starts_with("multicell.");
  }));
  obs::Registry::global().reset();
  obs::set_enabled(false, false);
  EXPECT_GT(report.handoffs, 5u);
  EXPECT_GT(report.max_interference_db, 0.0);
  return f.value();
}

TEST(ArrivalPassThreadInvariance, StandaloneCellDigestIsPinned) {
  constexpr std::uint64_t kPinned = 0x877eee6cd7f1c27eULL;
  EXPECT_EQ(standalone_digest("1", kPeriodS), kPinned);
  EXPECT_EQ(standalone_digest("4", kPeriodS), kPinned);
}

TEST(ArrivalPassThreadInvariance, DerivedPeriodCellDigestIsPinned) {
  constexpr std::uint64_t kPinned = 0x331c5b60a2db0995ULL;
  EXPECT_EQ(standalone_digest("1", 0.0), kPinned);
  EXPECT_EQ(standalone_digest("4", 0.0), kPinned);
}

TEST(ArrivalPassThreadInvariance, MultiCellDigestIsPinned) {
  constexpr std::uint64_t kPinned = 0x3c8e608c2e4496f3ULL;
  EXPECT_EQ(multi_cell_digest("1"), kPinned);
  EXPECT_EQ(multi_cell_digest("4"), kPinned);
}

}  // namespace
}  // namespace milback::cell
