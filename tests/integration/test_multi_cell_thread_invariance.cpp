// Multi-cell thread-count invariance: a 4-cell, 200-node campus scenario
// with roaming (handoffs), churn and co-channel interference must produce a
// bit-identical MultiCellReport AND byte-identical deterministic metric
// exports with MILBACK_SIM_THREADS set to 1 and to 4. Cells run as parallel
// TrialRunner tasks, every in-cell draw is keyed
// Rng::stream(seed, cell, node, event_seq), and all cross-cell coupling
// happens serially at epoch barriers — so the worker count is a pure
// performance knob.
//
// This suite matches the tsan test preset's filter
// ("ThreadInvariance"), so it doubles as the race-detector workload for the
// sharded path, the epoch fan-out and the shard-finish fan-out alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "milback/cell/multi_cell.hpp"
#include "milback/core/contract.hpp"
#include "milback/obs/exporters.hpp"
#include "milback/obs/registry.hpp"

#include "invariance_support.hpp"

namespace milback::cell {
namespace {

/// 2x2 campus grid, 200 nodes: most parked near their home AP, every tenth
/// node roams into a neighbour cell mid-run (forcing handoffs with backlog
/// in flight), a few leave, and reuse-2 leaves diagonal cell pairs sharing
/// a channel so interference coupling is active.
MultiCellEngine build_campus() {
  Rng env(5);
  MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {30.0, 0.0}, {0.0, 30.0}, {30.0, 30.0}};
  cfg.coverage_radius_m = 12.0;
  cfg.epoch_s = 0.02;
  cfg.frequency_channels = 2;
  cfg.interference_node_db = -20.0;
  MultiCellEngine engine(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(env)),
                         std::move(cfg));
  for (std::size_t i = 0; i < 200; ++i) {
    const std::size_t home = i % 4;
    const double hx = (home % 2) ? 30.0 : 0.0;
    const double hy = (home / 2) ? 30.0 : 0.0;
    // Deterministic scatter inside the home cell.
    const double px = hx + 1.0 + 0.08 * double(i % 29);
    const double py = hy - 2.0 + 0.11 * double(i % 31);
    const double orient = -15.0 + 1.5 * double(i % 23);
    const double join = (i % 7 == 6) ? 0.01 + 0.0005 * double(i) : 0.0;
    engine.add_node("tag-" + std::to_string(i), {px, py, orient},
                    {15e3 + 2e3 * double(i % 5), (i % 3 == 0) ? 0.0 : 1.0}, join);
    if (i % 10 == 3) {
      // Roam toward the horizontally adjacent AP: crosses the coverage
      // boundary, so the next barrier hands the node off.
      const double tx = (home % 2) ? 3.0 : 27.0;
      engine.schedule_waypoint(i, 0.06 + 0.001 * double(i % 11),
                               {tx, py, orient});
    }
    if (i % 25 == 12) engine.schedule_leave(i, 0.12 + 0.001 * double(i % 13));
  }
  return engine;
}

void expect_reports_identical(const MultiCellReport& a,
                              const MultiCellReport& b) {
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.peak_population, b.peak_population);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_DOUBLE_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
  EXPECT_DOUBLE_EQ(a.max_interference_db, b.max_interference_db);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    EXPECT_EQ(a.cells[c].service_rounds, b.cells[c].service_rounds);
    EXPECT_EQ(a.cells[c].events_dispatched, b.cells[c].events_dispatched);
    EXPECT_EQ(a.cells[c].final_population, b.cells[c].final_population);
    EXPECT_DOUBLE_EQ(a.cells[c].aggregate_goodput_bps,
                     b.cells[c].aggregate_goodput_bps);
    ASSERT_EQ(a.cells[c].nodes.size(), b.cells[c].nodes.size());
    for (std::size_t i = 0; i < a.cells[c].nodes.size(); ++i) {
      SCOPED_TRACE(a.cells[c].nodes[i].id);
      EXPECT_EQ(a.cells[c].nodes[i].id, b.cells[c].nodes[i].id);
      EXPECT_EQ(a.cells[c].nodes[i].rounds_served,
                b.cells[c].nodes[i].rounds_served);
      EXPECT_DOUBLE_EQ(a.cells[c].nodes[i].offered_bits,
                       b.cells[c].nodes[i].offered_bits);
      EXPECT_DOUBLE_EQ(a.cells[c].nodes[i].delivered_bits,
                       b.cells[c].nodes[i].delivered_bits);
      EXPECT_DOUBLE_EQ(a.cells[c].nodes[i].mean_latency_s,
                       b.cells[c].nodes[i].mean_latency_s);
      EXPECT_DOUBLE_EQ(a.cells[c].nodes[i].p95_latency_s,
                       b.cells[c].nodes[i].p95_latency_s);
      EXPECT_DOUBLE_EQ(a.cells[c].nodes[i].final_queue_bits,
                       b.cells[c].nodes[i].final_queue_bits);
    }
  }
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
    EXPECT_EQ(a.nodes[i].home_cell, b.nodes[i].home_cell);
    EXPECT_EQ(a.nodes[i].final_cell, b.nodes[i].final_cell);
    EXPECT_EQ(a.nodes[i].handoffs, b.nodes[i].handoffs);
    EXPECT_DOUBLE_EQ(a.nodes[i].offered_bits, b.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].delivered_bits, b.nodes[i].delivered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].final_queue_bits, b.nodes[i].final_queue_bits);
  }
}

TEST(MultiCellThreadInvariance, CampusScenarioReportIsBitIdentical) {
  MultiCellReport serial, parallel;
  {
    ScopedThreads guard("1");
    auto engine = build_campus();
    serial = engine.run(0.2, 4321);
  }
  {
    ScopedThreads guard("4");
    auto engine = build_campus();
    parallel = engine.run(0.2, 4321);
  }
  // Sanity: the scenario actually roams and interferes.
  EXPECT_GT(serial.handoffs, 5u);
  EXPECT_GT(serial.max_interference_db, 0.0);
  EXPECT_EQ(serial.peak_population, 200u);
  expect_reports_identical(serial, parallel);
}

TEST(MultiCellThreadInvariance, MetricExportsAreByteIdentical) {
  obs::set_enabled(true, false);
  const auto run_and_export = [](const char* threads) {
    ScopedThreads guard(threads);
    obs::Registry::global().reset();
    auto engine = build_campus();
    engine.run(0.2, 4321);
    return obs::metrics_jsonl(/*include_runtime=*/false);
  };
  const std::string serial = run_and_export("1");
  const std::string parallel = run_and_export("4");
  // The barrier's wall-clock halves record every epoch but stay kRuntime,
  // out of the deterministic export compared below.
  int barrier_spans = 0;
  for (const auto& m : obs::Registry::global().metric_snapshots()) {
    if (m.name != "multicell.barrier.handoff_ns" &&
        m.name != "multicell.barrier.interference_ns") {
      continue;
    }
    SCOPED_TRACE(m.name);
    ++barrier_spans;
    EXPECT_EQ(m.cls, obs::MetricClass::kRuntime);
    EXPECT_GT(m.hist.count, 0u);
    EXPECT_EQ(parallel.find(m.name), std::string::npos);
  }
  EXPECT_EQ(barrier_spans, 2);
  obs::Registry::global().reset();
  obs::set_enabled(false, false);
  // Sanity: per-cell labels and the handoff counters are flowing.
  EXPECT_NE(serial.find("cell.c0.events.service"), std::string::npos);
  EXPECT_NE(serial.find("cell.c3.events.service"), std::string::npos);
  EXPECT_NE(serial.find("cell.c1.events.handoff_in"), std::string::npos);
  EXPECT_NE(serial.find("multicell.handoffs"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

// 2^-6 s: epoch boundaries k * kEpochS are exact sums, so a directive can
// land exactly on one.
constexpr double kEpochS = 0.015625;

/// Node indices of the barrier's edge cases in build_barrier_edges().
struct EdgeNodes {
  std::size_t outside = 0;         ///< Beyond every coverage radius.
  std::size_t bisector = 0;        ///< Home by the double pose, not the float.
  std::size_t late_bisector = 0;   ///< The same, joining in epoch 2.
  std::size_t leave_first = 0;     ///< Joins in epoch 4; a leave dated
                                   ///< before that join is refused.
  std::size_t move_and_leave = 0;  ///< Waypoint and leave in one epoch.
  std::size_t on_boundary = 0;     ///< Waypoint exactly on an epoch boundary.
  std::size_t round_trip = 0;      ///< Out across a cell edge and back.
};

/// 2x2 grid at 20 m pitch with 8 m coverage, 48 parked nodes (some joining
/// late, at and between epoch boundaries) plus one node per barrier edge
/// case. Directives are scheduled out of node order, and several roamers
/// hand off into one cell at one barrier, so handoff order is observable.
MultiCellEngine build_barrier_edges(EdgeNodes& edge) {
  MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {20.0, 0.0}, {0.0, 20.0}, {20.0, 20.0}};
  cfg.coverage_radius_m = 8.0;
  cfg.epoch_s = kEpochS;
  cfg.frequency_channels = 2;
  cfg.interference_node_db = -20.0;
  cfg.cell.service_period_s = kEpochS;
  Rng env(5);
  MultiCellEngine engine(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(env)),
                         std::move(cfg));
  const auto ap = [](std::size_t c) {
    return std::pair{(c % 2) ? 20.0 : 0.0, (c / 2) ? 20.0 : 0.0};
  };
  for (std::size_t i = 0; i < 48; ++i) {
    const auto [hx, hy] = ap(i % 4);
    const double join = i % 9 == 4 ? kEpochS * double(1 + i % 4)         // on a boundary
                        : i % 9 == 7 ? kEpochS * (0.5 + double(i % 5))  // between
                                     : 0.0;
    engine.add_node("edge-" + std::to_string(i),
                    {hx + 1.0 + 0.07 * double(i % 13), hy - 1.5 + 0.11 * double(i % 17),
                     -12.0 + 1.3 * double(i % 19)},
                    {12e3 + 3e3 * double(i % 4), (i % 3 == 0) ? 0.0 : 1.0}, join);
  }
  // Roamers into cell 3 at one barrier, scheduled highest node first.
  for (const std::size_t i : {45u, 29u, 13u}) {
    engine.schedule_waypoint(i, kEpochS * 4.5 + 0.001 * double(i % 3),
                             {18.5 + 0.1 * double(i % 7), 19.0, 5.0});
  }
  const RoamingTraffic traffic{.arrival_rate_bps = 20e3, .burstiness = 1.0};
  edge.outside = engine.add_node("edge-outside", {9.0, 31.0, 0.0}, traffic);
  // 10 + 1e-7 rounds to 10.0f: the double pose is nearer AP 1, the float
  // pose ties (AP 0 wins), and 10 m is beyond coverage.
  edge.bisector = engine.add_node("edge-bisector", {10.0000001, 0.0, 3.0}, traffic);
  edge.late_bisector = engine.add_node("edge-late-bisector", {10.0000001, 0.5, -3.0},
                                       traffic, kEpochS * 2.5);
  edge.leave_first = engine.add_node("edge-leave-first", {1.5, 1.0, 0.0}, traffic,
                                     kEpochS * 4.2);
  edge.move_and_leave = engine.add_node("edge-move-and-leave", {2.0, -1.0, 4.0}, traffic);
  engine.schedule_leave(edge.move_and_leave, kEpochS * 3.6);
  engine.schedule_waypoint(edge.move_and_leave, kEpochS * 3.2, {18.0, -1.0, 4.0});
  edge.on_boundary = engine.add_node("edge-on-boundary", {21.0, 1.0, -6.0}, traffic);
  engine.schedule_waypoint(edge.on_boundary, kEpochS * 3.0, {1.0, 18.5, -6.0});
  edge.round_trip = engine.add_node("edge-round-trip", {1.0, 19.0, 8.0}, traffic);
  engine.schedule_waypoint(edge.round_trip, kEpochS * 6.8, {1.0, 19.0, 8.0});
  engine.schedule_waypoint(edge.round_trip, kEpochS * 2.3, {19.0, 19.5, 8.0});
  return engine;
}

std::uint64_t barrier_edges_digest(const char* threads) {
  ScopedThreads guard(threads);
  EdgeNodes edge;
  auto engine = build_barrier_edges(edge);
  const MultiCellReport report = engine.run(kEpochS * 12.0, 2718);
  Fnv f;
  f.add(std::uint64_t{report.epochs});
  f.add(std::uint64_t{report.handoffs});
  f.add(std::uint64_t{report.peak_population});
  f.add(report.aggregate_goodput_bps);
  f.add(report.max_interference_db);
  f.add(std::uint64_t{report.stable});
  for (const auto& cell : report.cells) fold_traffic(f, cell);
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
  // Sanity: each edge case does what its name says.
  const auto& nodes = report.nodes;
  EXPECT_EQ(nodes[edge.outside].handoffs, 0u);
  EXPECT_EQ(nodes[edge.bisector].home_cell, 1u);
  EXPECT_EQ(nodes[edge.bisector].final_cell, 0u);
  EXPECT_EQ(nodes[edge.late_bisector].home_cell, 1u);
  EXPECT_EQ(nodes[edge.late_bisector].final_cell, 0u);
  EXPECT_EQ(nodes[edge.move_and_leave].handoffs, 0u);
  EXPECT_EQ(nodes[edge.on_boundary].final_cell, 2u);
  EXPECT_EQ(nodes[edge.round_trip].handoffs, 2u);
  EXPECT_EQ(nodes[edge.round_trip].final_cell, 2u);
  EXPECT_EQ(nodes[13].final_cell, 3u);
  EXPECT_EQ(nodes[45].final_cell, 3u);
  EXPECT_GT(report.cells[0].nodes[0].p95_latency_s, 0.0);
  return f.value();
}

TEST(MultiCellThreadInvariance, BarrierEdgeCasesMatchTheParent) {
  // Taken from the engine whose barrier examined every node at every epoch
  // and whose shards finished serially on the thread that called run(),
  // on this scenario (edge-leave-first joins in epoch 4 and never leaves).
  constexpr std::uint64_t kPinned = 0x31b2683e7d1e783aULL;
  EXPECT_EQ(barrier_edges_digest("1"), kPinned);
  EXPECT_EQ(barrier_edges_digest("4"), kPinned);

  // A leave dated before its node's join is refused at the call: a later
  // join would otherwise undo it.
  EdgeNodes edge;
  auto engine = build_barrier_edges(edge);
  EXPECT_THROW(engine.schedule_leave(edge.leave_first, kEpochS * 1.7),
               milback::ContractViolation);
}

}  // namespace
}  // namespace milback::cell
