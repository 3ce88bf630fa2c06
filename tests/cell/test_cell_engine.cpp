// Cell engine behavior tests: churn, mobility, blockage, sessions,
// determinism and the engine's contracts.
#include <gtest/gtest.h>

#include <limits>

#include "milback/cell/cell_engine.hpp"
#include "milback/core/contract.hpp"

namespace milback::cell {
namespace {

channel::BackscatterChannel make_channel(std::uint64_t env_seed = 1) {
  Rng env(env_seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env));
}

CellEngine make_engine(CellConfig config = {}, std::uint64_t env_seed = 1) {
  return CellEngine(make_channel(env_seed), config);
}

core::TrafficSpec spec(double distance_m, double azimuth_deg,
                       double rate_bps = 100e3) {
  return core::TrafficSpec{.pose = {distance_m, azimuth_deg, 12.0},
                           .arrival_rate_bps = rate_bps};
}

TEST(CellEngine, StaticPopulationDeliversTraffic) {
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, -25.0));
  engine.add_node("b", spec(3.0, 20.0));
  const auto report = engine.run(0.3, 42);
  EXPECT_TRUE(report.stable);
  EXPECT_GT(report.service_rounds, 0u);
  EXPECT_EQ(report.peak_population, 2u);
  EXPECT_EQ(report.final_population, 2u);
  ASSERT_EQ(report.nodes.size(), 2u);
  for (const auto& n : report.nodes) {
    EXPECT_GT(n.offered_bits, 0.0) << n.id;
    EXPECT_GT(n.delivered_bits, 0.9 * n.offered_bits) << n.id;
    EXPECT_GT(n.rounds_served, 0u) << n.id;
  }
}

TEST(CellEngine, LateJoinerAccruesTrafficOnlyWhileAlive) {
  auto full_time = make_engine();
  full_time.add_node("a", spec(2.0, 0.0));
  auto late = make_engine();
  late.add_node("a", spec(2.0, 0.0), /*join_time_s=*/0.15);
  const auto rf = full_time.run(0.3, 7);
  const auto rl = late.run(0.3, 7);
  EXPECT_GT(rl.nodes[0].offered_bits, 0.0);
  // Alive for roughly half the scenario -> roughly half the traffic.
  EXPECT_LT(rl.nodes[0].offered_bits, 0.75 * rf.nodes[0].offered_bits);
  EXPECT_DOUBLE_EQ(rl.nodes[0].join_time_s, 0.15);
}

TEST(CellEngine, LeaveFreezesBacklogAndStats) {
  auto engine = make_engine();
  const auto i = engine.add_node("a", spec(2.0, 0.0));
  engine.add_node("b", spec(2.5, 30.0));
  engine.schedule_leave(i, 0.1);
  const auto report = engine.run(0.3, 11);
  EXPECT_DOUBLE_EQ(report.nodes[0].leave_time_s, 0.1);
  EXPECT_EQ(report.final_population, 1u);
  EXPECT_EQ(report.peak_population, 2u);
  // The survivor keeps being served well past the leaver's departure.
  EXPECT_GT(report.nodes[1].rounds_served, report.nodes[0].rounds_served);
}

TEST(CellEngine, MoveIntoRangeStartsService) {
  auto engine = make_engine();
  // Starts out of radio range: unreachable, no service, no sweeps at all
  // (nothing to serve), until the waypoint brings it to 2 m at t = 0.1 s.
  const auto i = engine.add_node("rover", spec(18.0, 0.0));
  engine.schedule_move(i, 0.1, {2.0, 0.0, 12.0});
  const auto report = engine.run(0.3, 13);
  EXPECT_GT(report.nodes[0].rounds_served, 0u);
  EXPECT_GT(report.nodes[0].delivered_bits, 0.0);
  EXPECT_DOUBLE_EQ(report.nodes[0].service_rate_bps, 40e6);
}

TEST(CellEngine, BlockageEpisodeSuppressesServiceWhileActive) {
  auto blocked = make_engine();
  blocked.add_node("a", spec(2.0, 0.0, 500e3));
  // A 30 dB one-way body blockage across the whole run: the budget collapses
  // and the scheduler never grants a slot.
  blocked.schedule_blockage(0.0, 1.0, 30.0);
  const auto rb = blocked.run(0.3, 17);
  EXPECT_EQ(rb.nodes[0].rounds_served, 0u);
  EXPECT_DOUBLE_EQ(rb.nodes[0].delivered_bits, 0.0);

  auto episodic = make_engine();
  episodic.add_node("a", spec(2.0, 0.0, 500e3));
  episodic.schedule_blockage(0.1, 0.2, 30.0);
  const auto re = episodic.run(0.3, 17);
  // Service resumes after the episode clears.
  EXPECT_GT(re.nodes[0].rounds_served, 0u);
  EXPECT_GT(re.nodes[0].delivered_bits, 0.0);
}

TEST(CellEngine, ObserverSeesEveryServedSweep) {
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, -25.0));
  engine.add_node("b", spec(3.0, 20.0));
  std::size_t observations = 0;
  std::size_t max_round = 0;
  engine.set_observer([&](const ServiceObservation& obs) {
    ++observations;
    max_round = std::max(max_round, obs.round);
    EXPECT_FALSE(obs.has_session);
    EXPECT_GE(obs.rate_bps, 0.0);
  });
  const auto report = engine.run(0.2, 19);
  EXPECT_EQ(observations, report.service_rounds * 2u);
  EXPECT_EQ(max_round + 1u, report.service_rounds);
}

TEST(CellEngine, SessionModeTracksAndDelivers) {
  CellConfig cfg;
  cfg.sessions.emplace();
  cfg.service_period_s = 0.01;
  auto engine = make_engine(cfg);
  engine.add_node("a", spec(3.0, 10.0));
  std::size_t tracking_rounds = 0;
  engine.set_observer([&](const ServiceObservation& obs) {
    ASSERT_TRUE(obs.has_session);
    if (obs.session.state == core::SessionState::kTracking) ++tracking_rounds;
  });
  const auto report = engine.run(0.3, 23);
  // The session acquires within a few sweeps and then serves traffic.
  EXPECT_GT(tracking_rounds, report.service_rounds / 2);
  EXPECT_GT(report.nodes[0].delivered_bits, 0.0);
}

TEST(CellEngine, SessionModeRequiresPinnedPeriod) {
  CellConfig cfg;
  cfg.sessions.emplace();  // service_period_s left at 0
  auto engine = make_engine(cfg);
  engine.add_node("a", spec(2.0, 0.0));
  EXPECT_THROW(engine.run(0.1, 1), milback::ContractViolation);
}

TEST(CellEngine, RunIsSingleShot) {
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, 0.0));
  engine.run(0.05, 1);
  EXPECT_THROW(engine.run(0.05, 1), milback::ContractViolation);
  EXPECT_THROW(engine.add_node("late", spec(2.0, 10.0)),
               milback::ContractViolation);
}

TEST(CellEngine, SetMultipathAfterBeginThrows) {
  // The scene is fixed for a run: the sweep memo assumes it, as set_mesh's
  // callers already must.
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, 0.0));
  engine.set_multipath(channel::MultipathConfig::office_walls(3));
  engine.begin(0.05, 1);
  EXPECT_THROW(engine.set_multipath({}), milback::ContractViolation);
  engine.finish();
  EXPECT_THROW(engine.set_multipath({}), milback::ContractViolation);

  auto ran = make_engine();
  ran.add_node("a", spec(2.0, 0.0));
  ran.run(0.05, 1);
  EXPECT_THROW(ran.set_multipath({}), milback::ContractViolation);
}

TEST(CellEngine, DeterministicGivenSeed) {
  const auto scenario = [](CellEngine& engine) {
    const auto a = engine.add_node("a", spec(2.0, -25.0));
    engine.add_node("b", spec(3.0, 20.0));
    engine.add_node("c", spec(4.0, 0.0), 0.05);
    engine.schedule_leave(a, 0.2);
    engine.schedule_move(1, 0.1, {2.5, 28.0, 12.0});
    engine.schedule_blockage(0.12, 0.18, 20.0);
  };
  auto e1 = make_engine();
  auto e2 = make_engine();
  scenario(e1);
  scenario(e2);
  const auto r1 = e1.run(0.3, 31);
  const auto r2 = e2.run(0.3, 31);
  ASSERT_EQ(r1.nodes.size(), r2.nodes.size());
  EXPECT_EQ(r1.events_dispatched, r2.events_dispatched);
  EXPECT_EQ(r1.service_rounds, r2.service_rounds);
  for (std::size_t i = 0; i < r1.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.nodes[i].offered_bits, r2.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(r1.nodes[i].delivered_bits, r2.nodes[i].delivered_bits);
    EXPECT_DOUBLE_EQ(r1.nodes[i].mean_latency_s, r2.nodes[i].mean_latency_s);
  }
  // A different seed re-jitters the arrivals.
  auto e3 = make_engine();
  scenario(e3);
  const auto r3 = e3.run(0.3, 32);
  EXPECT_NE(r1.nodes[1].offered_bits, r3.nodes[1].offered_bits);
}

TEST(CellEngine, ScheduleValidatesNodeIndex) {
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, 0.0));
  EXPECT_THROW(engine.schedule_leave(5, 0.1), milback::ContractViolation);
  EXPECT_THROW(engine.schedule_move(5, 0.1, {2.0, 0.0, 12.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_blockage(0.2, 0.1, 20.0),
               milback::ContractViolation);
  // A move takes add_node's pose checks: a pose the sweep cannot serve is
  // refused when scheduled, not on the sweep after it lands.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.schedule_move(0, 0.1, {0.0, 0.0, 12.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_move(0, 0.1, {-1.0, 0.0, 12.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_move(0, 0.1, {2.0, nan, 12.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_move(0, 0.1, {2.0, 0.0, nan}),
               milback::ContractViolation);
  engine.schedule_move(0, 0.1, {2.5, 5.0, 12.0});
  EXPECT_EQ(engine.pending_events(), 1u);
}

TEST(CellEngine, ScheduleRejectsTimesBeforeTheClock) {
  // Mid-run, the engine has dispatched everything before the last
  // advance_to limit: a directive dated before it would rewrite history
  // (a leave at 0.1 reported for a node served until 0.5).
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, 0.0));
  engine.add_node("b", spec(3.0, 15.0));
  engine.begin(1.0, 5);
  engine.advance_to(0.5);
  EXPECT_THROW(engine.schedule_leave(0, 0.1), milback::ContractViolation);
  EXPECT_THROW(engine.schedule_move(1, 0.4, {2.5, 10.0, 12.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_blockage(0.2, 0.8, 10.0),
               milback::ContractViolation);
  // A later, smaller limit does not wind the clock back.
  engine.advance_to(0.3);
  EXPECT_THROW(engine.schedule_leave(0, 0.4), milback::ContractViolation);
  // At or after the clock is still the future.
  engine.schedule_leave(0, 0.5);
  engine.schedule_move(1, 0.6, {2.5, 10.0, 12.0});
  engine.schedule_blockage(0.7, 0.8, 10.0);
  const auto report = engine.finish();
  EXPECT_DOUBLE_EQ(report.nodes[0].leave_time_s, 0.5);
  EXPECT_EQ(report.nodes[1].leave_time_s, -1.0);
}

TEST(CellEngine, ScheduleLeaveRejectsTimesBeforeTheJoin) {
  // A later kJoin would make the node alive again, and the report would
  // show a leave before the join.
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, 0.0));
  const auto late = engine.add_node("late", spec(3.0, 15.0), 0.2);
  EXPECT_THROW(engine.schedule_leave(late, 0.1), milback::ContractViolation);
  // At or after the join is allowed; a present-from-start node may leave
  // at any time.
  engine.schedule_leave(late, 0.2);
  engine.schedule_leave(0, 0.05);
  const auto report = engine.run(0.3, 5);
  EXPECT_DOUBLE_EQ(report.nodes[late].leave_time_s, 0.2);
  EXPECT_DOUBLE_EQ(report.nodes[0].leave_time_s, 0.05);
}

TEST(CellEngine, AddNodeRejectsDegeneratePoses) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto engine = make_engine();
  EXPECT_THROW(engine.add_node("at-ap", spec(0.0, 10.0)),
               milback::ContractViolation);
  EXPECT_THROW(engine.add_node("behind", spec(-1.0, 10.0)),
               milback::ContractViolation);
  EXPECT_THROW(engine.add_node("no-bearing", spec(2.0, nan)),
               milback::ContractViolation);
  EXPECT_THROW(engine.add_node("no-facing", {.pose = {2.0, 10.0, nan}}),
               milback::ContractViolation);
  // The traffic spec is checked on entry too: a NaN or infinite rate would
  // throw mid-run, and NaN burstiness would silently offer 0 bits.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double rate : {nan, inf, -1.0}) {
    EXPECT_THROW(engine.add_node("bad-rate", spec(2.0, 10.0, rate)),
                 milback::ContractViolation)
        << rate;
  }
  for (const double burstiness : {nan, -0.5}) {
    auto traffic = spec(2.0, 10.0);
    traffic.burstiness = burstiness;
    EXPECT_THROW(engine.add_node("bad-burst", traffic), milback::ContractViolation)
        << burstiness;
  }
  EXPECT_EQ(engine.node_count(), 0u);
  EXPECT_EQ(engine.add_node("ok", spec(2.0, 10.0)), 0u);
}

}  // namespace
}  // namespace milback::cell
