// Cell engine thread-count invariance: a full discrete-event churn scenario
// — 50 nodes with staggered joins, leaves, mobility waypoints and a blockage
// episode — must produce a bit-identical CellReport with MILBACK_SIM_THREADS
// set to 1 and to 4. Every random draw inside the engine comes from
// Rng::stream(seed, node, event_seq) and the per-sweep fan-out reduces in
// node-index order, so the worker count is a pure performance knob.
//
// This suite matches the tsan test preset's filter, so it is also the
// designated race-detector workload for the engine's parallel path. The
// session-scene digest also pins session mode against the engine in which
// every session carried its own link.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "milback/cell/cell_engine.hpp"

#include "invariance_support.hpp"

namespace milback::cell {
namespace {

CellEngine make_engine(CellConfig config = {}) {
  Rng env(5);
  return CellEngine(channel::BackscatterChannel::make_default(
                        channel::Environment::indoor_office(env)),
                    config);
}

/// 50-node churn scenario: a deterministic synthetic fleet with staggered
/// joins, departures, mobility waypoints and one blockage episode — the
/// workload none of the pre-engine layers could express.
void build_churn_scenario(CellEngine& engine) {
  for (std::size_t i = 0; i < 50; ++i) {
    const double bearing = -55.0 + 2.2 * double(i);
    const double distance = 1.5 + 0.12 * double(i % 17);
    const double orientation = -20.0 + 2.0 * double(i % 21);
    const core::TrafficSpec spec{
        .pose = {distance, bearing, orientation},
        .arrival_rate_bps = 20e3 + 3e3 * double(i % 7),
        .burstiness = (i % 3 == 0) ? 0.0 : 1.0,
    };
    // A third of the fleet joins mid-run (all before the first leave at
    // t = 0.108, so the population genuinely peaks at 50).
    const double join = (i % 3 == 2) ? 0.02 + 0.001 * double(i) : 0.0;
    engine.add_node("tag-" + std::to_string(i), spec, join);
    if (i % 5 == 4) engine.schedule_leave(i, 0.10 + 0.002 * double(i));
    if (i % 4 == 1) {
      engine.schedule_move(i, 0.05 + 0.002 * double(i),
                           {distance + 1.0, bearing + 3.0, orientation});
    }
  }
  engine.schedule_blockage(0.08, 0.12, 18.0);
}

TEST(CellThreadInvariance, FiftyNodeChurnScenarioIsBitIdentical) {
  CellReport serial, parallel;
  {
    ScopedThreads guard("1");
    auto engine = make_engine();
    build_churn_scenario(engine);
    serial = engine.run(0.2, 1234);
  }
  {
    ScopedThreads guard("4");
    auto engine = make_engine();
    build_churn_scenario(engine);
    parallel = engine.run(0.2, 1234);
  }
  // Sanity: the scenario actually exercises churn and service.
  EXPECT_GT(serial.service_rounds, 10u);
  EXPECT_EQ(serial.peak_population, 50u);
  EXPECT_LT(serial.final_population, 50u);
  expect_reports_identical(serial, parallel);
}

TEST(CellThreadInvariance, SessionModeCellIsBitIdentical) {
  // Session mode runs a full AdaptiveSession per node inside the fan-out —
  // the heaviest shared-state surface (each trial mutates its own session).
  CellConfig cfg;
  cfg.sessions.emplace();
  cfg.service_period_s = 0.02;
  const auto build = [&]() {
    auto engine = make_engine(cfg);
    engine.add_node("a", {.pose = {2.0, -30.0, 10.0}, .arrival_rate_bps = 80e3});
    engine.add_node("b", {.pose = {2.5, -5.0, -8.0}, .arrival_rate_bps = 80e3});
    engine.add_node("c", {.pose = {3.0, 10.0, 12.0}, .arrival_rate_bps = 80e3});
    engine.add_node("d", {.pose = {3.5, 35.0, 5.0}, .arrival_rate_bps = 80e3},
                    0.05);
    engine.schedule_move(1, 0.10, {2.7, -8.0, -8.0});
    engine.schedule_blockage(0.12, 0.16, 12.0);
    return engine;
  };
  CellReport serial, parallel;
  {
    ScopedThreads guard("1");
    auto engine = build();
    serial = engine.run(0.2, 77);
  }
  {
    ScopedThreads guard("4");
    auto engine = build();
    parallel = engine.run(0.2, 77);
  }
  EXPECT_GT(serial.service_rounds, 5u);
  expect_reports_identical(serial, parallel);
}

/// Session cell over a wall and a moving blocker that crosses node "a"'s
/// direct path mid-run, with a blockage episode, a co-channel interference
/// change between two advance_to calls, a late joiner, a move and a leave.
/// Returns an FNV digest of the CellReport and of every observed
/// SessionStep.
std::uint64_t session_scene_digest(const char* threads) {
  ScopedThreads guard(threads);
  CellConfig cfg;
  cfg.sessions.emplace();
  cfg.service_period_s = 0.02;
  auto engine = make_engine(cfg);
  channel::MultipathConfig scene;
  scene.walls.push_back({0.5, 0.9, 3.5, 0.9, 10.0});
  // At (1.2, -1.0) when the run starts, crossing y = 0 at t = 0.2 s.
  scene.blockers.push_back({.x_m = 1.2, .y_m = -1.0, .vx_mps = 0.0, .vy_mps = 5.0,
                            .radius_m = 0.3, .penetration_loss_db = 30.0});
  engine.set_multipath(scene);
  engine.add_node("a", {.pose = {2.5, 0.0, 10.0}, .arrival_rate_bps = 80e3});
  engine.add_node("b", {.pose = {2.2, -25.0, -8.0}, .arrival_rate_bps = 60e3,
                        .burstiness = 1.0});
  engine.add_node("c", {.pose = {3.0, 20.0, 12.0}, .arrival_rate_bps = 80e3});
  engine.add_node("late", {.pose = {2.8, 32.0, 5.0}, .arrival_rate_bps = 80e3},
                  0.09);
  engine.schedule_move(1, 0.13, {2.6, -15.0, -8.0});
  engine.schedule_leave(2, 0.31);
  engine.schedule_blockage(0.22, 0.27, 12.0);

  Fnv f;
  std::size_t tracking = 0;
  engine.set_observer([&](const ServiceObservation& o) {
    const core::SessionStep& s = o.session;
    f.add(o.time_s);
    f.add(std::uint64_t{o.node});
    f.add(std::uint64_t(s.state));
    f.add(std::uint64_t{s.localized});
    f.add(s.range_m);
    f.add(s.angle_deg);
    f.add(s.raw_range_m);
    f.add(s.raw_angle_deg);
    f.add(s.speed_mps);
    f.add(s.budget_snr_db);
    f.add(s.uplink_rate_bps);
    f.add(std::uint64_t{s.fec_enabled});
    f.add(std::uint64_t{s.payload_bit_errors});
    f.add(s.delivered_data_bps);
    if (s.state == core::SessionState::kTracking) ++tracking;
  });
  engine.begin(0.4, 4242);
  engine.advance_to(0.15);
  engine.set_external_interference_db(6.0);
  engine.advance_to(0.3);
  const CellReport report = engine.finish();
  fold_traffic(f, report);
  // Sanity: the sessions track, churn happened and the scene was served.
  EXPECT_GT(tracking, 20u);
  EXPECT_EQ(report.peak_population, 4u);
  EXPECT_EQ(report.final_population, 3u);
  EXPECT_GT(report.nodes[3].rounds_served, 0u);
  return f.value();
}

TEST(CellThreadInvariance, SessionSceneDigestMatchesTheParent) {
  // Taken from the engine whose sessions each stepped on their own link
  // and channel copy, kept in sync by the engine's per-session loops.
  constexpr std::uint64_t kPinned = 0xa55038dc6628bae0ULL;
  EXPECT_EQ(session_scene_digest("1"), kPinned);
  EXPECT_EQ(session_scene_digest("4"), kPinned);
}

}  // namespace
}  // namespace milback::cell
