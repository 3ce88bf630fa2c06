// Multi-cell thread-count invariance: a 4-cell, 200-node campus scenario
// with roaming (handoffs), churn and co-channel interference must produce a
// bit-identical MultiCellReport AND byte-identical deterministic metric
// exports with MILBACK_SIM_THREADS set to 1 and to 4. Cells run as parallel
// TrialRunner tasks, every in-cell draw is keyed
// Rng::stream(seed, cell, node, event_seq), and all cross-cell coupling
// happens serially at epoch barriers — so the worker count is a pure
// performance knob.
//
// This suite matches the check.sh TSan stage's test regex
// ("ThreadInvariance"), so it doubles as the race-detector workload for the
// sharded path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "milback/cell/multi_cell.hpp"
#include "milback/obs/exporters.hpp"
#include "milback/obs/registry.hpp"

namespace milback::cell {
namespace {

/// Scoped MILBACK_SIM_THREADS override (restores the prior value on exit).
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv(kName);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(kName, value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      ::setenv(kName, saved_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "MILBACK_SIM_THREADS";
  std::string saved_;
  bool had_value_ = false;
};

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

}  // namespace
}  // namespace milback::cell
