// MultiCellEngine behavior: geometry mapping, epoch-barrier handoff with
// backlog carry-over, co-channel interference coupling, and determinism of
// the whole-network report.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <string_view>

#include "milback/cell/multi_cell.hpp"
#include "milback/core/contract.hpp"
#include "milback/obs/exporters.hpp"
#include "milback/obs/registry.hpp"

namespace milback::cell {
namespace {

MultiCellConfig two_cell_config() {
  MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {30.0, 0.0}};
  cfg.coverage_radius_m = 10.0;
  cfg.epoch_s = 0.02;
  return cfg;
}

MultiCellEngine make_engine(MultiCellConfig cfg) {
  Rng env(5);
  return MultiCellEngine(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(env)),
                         std::move(cfg));
}

// add_node takes the traffic as a struct, then the join time. A bare rate
// is the one double it takes after the pose: a rate and a join time as two
// bare doubles must not compile, or the join time would pass for the
// burstiness and the node would join at t = 0.
template <typename... Traffic>
concept AddNodeTakes = requires(MultiCellEngine& e, Traffic... traffic) {
  e.add_node(std::string{}, GlobalPose{}, traffic...);
};
static_assert(AddNodeTakes<double>);
static_assert(AddNodeTakes<RoamingTraffic>);
static_assert(AddNodeTakes<RoamingTraffic, double>);
static_assert(!AddNodeTakes<double, double>);
static_assert(!AddNodeTakes<double, double, double>);

TEST(MultiCell, BareRateMeansDefaultBurstinessPresentFromTheStart) {
  const auto run_with = [](bool bare) {
    auto engine = make_engine(two_cell_config());
    if (bare) {
      engine.add_node("a", {2.0, 1.0, 0.0}, 40e3);
    } else {
      engine.add_node("a", {2.0, 1.0, 0.0}, {.arrival_rate_bps = 40e3, .burstiness = 1.0}, 0.0);
    }
    return engine.run(0.1, 8);
  };
  const MultiCellReport bare = run_with(true);
  const MultiCellReport full = run_with(false);
  EXPECT_EQ(bare.nodes[0].offered_bits, full.nodes[0].offered_bits);
  EXPECT_GT(bare.nodes[0].offered_bits, 0.0);
  EXPECT_DOUBLE_EQ(bare.cells[0].nodes[0].join_time_s, 0.0);
  EXPECT_EQ(bare.aggregate_goodput_bps, full.aggregate_goodput_bps);
}

TEST(MultiCell, GeometryMapsGlobalPoseIntoServingCellFrame) {
  auto engine = make_engine(two_cell_config());
  EXPECT_EQ(engine.cell_count(), 2u);
  EXPECT_EQ(engine.nearest_cell(2.0, 1.0), 0u);
  EXPECT_EQ(engine.nearest_cell(28.0, -1.0), 1u);
  // Equidistant point: lowest index wins.
  EXPECT_EQ(engine.nearest_cell(15.0, 0.0), 0u);

  const auto local = engine.local_pose(1, {27.0, 4.0, 12.0});
  EXPECT_DOUBLE_EQ(local.distance_m, 5.0);  // 3-4-5 triangle from AP 1
  EXPECT_NEAR(local.azimuth_deg, 180.0 - 53.13, 0.01);
  EXPECT_DOUBLE_EQ(local.orientation_deg, 12.0);

  // A node on top of the AP clamps to 10 cm instead of a zero distance.
  EXPECT_DOUBLE_EQ(engine.local_pose(0, {0.0, 0.0, 0.0}).distance_m, 0.1);
}

TEST(MultiCell, RoamingNodeHandsOffWithBacklogCarryOver) {
  auto engine = make_engine(two_cell_config());
  const std::size_t roamer =
      engine.add_node("roamer", {3.0, 0.0, 5.0}, 60e3);
  engine.add_node("anchor-0", {2.0, 1.0, 0.0}, 40e3);
  engine.add_node("anchor-1", {28.0, -1.0, 0.0}, 40e3);
  EXPECT_EQ(engine.node_cell(roamer), 0u);
  // Mid-run the roamer jumps next to AP 1 — outside cell 0's coverage, so
  // the next epoch barrier must hand it off.
  engine.schedule_waypoint(roamer, 0.05, {27.0, 0.0, 5.0});

  const MultiCellReport report = engine.run(0.2, 42);
  EXPECT_EQ(engine.node_cell(roamer), 1u);
  EXPECT_EQ(report.handoffs, 1u);
  ASSERT_EQ(report.nodes.size(), 3u);

  const MultiCellNodeReport& r = report.nodes[roamer];
  EXPECT_EQ(std::string(r.id.view()), "roamer");
  EXPECT_EQ(r.home_cell, 0u);
  EXPECT_EQ(r.final_cell, 1u);
  EXPECT_EQ(r.handoffs, 1u);
  // Traffic was offered on both sides of the handoff and service continued
  // in the target cell.
  EXPECT_GT(r.offered_bits, 0.0);
  EXPECT_GT(r.delivered_bits, 0.0);
  EXPECT_GT(r.rounds_served, 0u);

  // Source-cell accounting: the roamer's cell-0 report entry shows the
  // handoff time as its leave time and a zeroed backlog (the chunks left
  // with the node).
  ASSERT_EQ(report.cells.size(), 2u);
  const CellNodeReport& source = report.cells[0].nodes[0];
  EXPECT_EQ(std::string(source.id.view()), "roamer");
  EXPECT_GT(source.leave_time_s, 0.05);
  EXPECT_DOUBLE_EQ(source.final_queue_bits, 0.0);
  // Target-cell entry: same interned id, joined at the handoff instant.
  bool found = false;
  for (const auto& n : report.cells[1].nodes) {
    if (n.id == r.id) {
      found = true;
      EXPECT_DOUBLE_EQ(n.join_time_s, source.leave_time_s);
      EXPECT_EQ(n.leave_time_s, -1.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MultiCell, CoChannelCellsRaiseEachOthersNoiseFloor) {
  // Same scenario on one shared channel vs one channel per cell: reuse-1
  // must report a positive worst-case noise rise, full reuse none at all,
  // and the extra loss must cost delivered throughput.
  const auto build = [](std::size_t channels) {
    MultiCellConfig cfg = two_cell_config();
    cfg.frequency_channels = channels;
    cfg.interference_node_db = -10.0;  // exaggerated so the loss is visible
    auto engine = make_engine(cfg);
    for (std::size_t i = 0; i < 4; ++i) {
      engine.add_node("a-" + std::to_string(i),
                      {2.0 + 0.5 * double(i), 1.0, 0.0}, 60e3);
      engine.add_node("b-" + std::to_string(i),
                      {28.0 - 0.5 * double(i), -1.0, 0.0}, 60e3);
    }
    return engine;
  };
  auto reuse1 = build(1);
  const MultiCellReport shared = reuse1.run(0.2, 7);
  auto reuse2 = build(2);
  const MultiCellReport isolated = reuse2.run(0.2, 7);

  EXPECT_GT(shared.max_interference_db, 0.0);
  EXPECT_DOUBLE_EQ(isolated.max_interference_db, 0.0);
  EXPECT_LE(shared.aggregate_goodput_bps, isolated.aggregate_goodput_bps);
}

TEST(MultiCell, SetMultipathAfterRunThrows) {
  auto engine = make_engine(two_cell_config());
  engine.add_node("a", {2.0, 1.0, 0.0}, 40e3);
  engine.set_multipath(channel::MultipathConfig::office_walls(3));
  engine.run(0.04, 1);
  EXPECT_THROW(engine.set_multipath({}), milback::ContractViolation);
  EXPECT_THROW(engine.set_observer(2, {}), milback::ContractViolation);
  EXPECT_THROW(engine.cell(2), milback::ContractViolation);
}

TEST(MultiCell, ScheduledLeaveRetiresTheNode) {
  auto engine = make_engine(two_cell_config());
  const std::size_t n = engine.add_node("leaver", {3.0, 0.0, 0.0}, 40e3);
  engine.add_node("stayer", {28.0, 0.0, 0.0}, 40e3);
  engine.schedule_leave(n, 0.1);
  const MultiCellReport report = engine.run(0.2, 3);
  EXPECT_EQ(report.peak_population, 2u);
  EXPECT_DOUBLE_EQ(report.cells[0].nodes[0].leave_time_s, 0.1);
  EXPECT_EQ(report.cells[0].final_population, 0u);
  EXPECT_EQ(report.cells[1].final_population, 1u);
  EXPECT_EQ(report.handoffs, 0u);
}

TEST(MultiCell, SameSeedSameReport) {
  const auto run_once = [] {
    auto engine = make_engine(two_cell_config());
    engine.add_node("r", {3.0, 0.0, 5.0}, 60e3);
    engine.add_node("s", {28.0, 0.0, 0.0}, 40e3);
    engine.schedule_waypoint(0, 0.05, {27.0, 0.0, 5.0});
    return engine.run(0.2, 1234);
  };
  const MultiCellReport a = run_once();
  const MultiCellReport b = run_once();
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_DOUBLE_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
  EXPECT_DOUBLE_EQ(a.max_interference_db, b.max_interference_db);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[i].offered_bits, b.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].delivered_bits, b.nodes[i].delivered_bits);
    EXPECT_EQ(a.nodes[i].rounds_served, b.nodes[i].rounds_served);
  }
}

TEST(MultiCell, RejectsPlanCoordinatesThatOverflowFloat) {
  // The driver stores plan coordinates as float: a finite double beyond
  // float range would become inf and throw mid-run, so it is refused when
  // the node or waypoint is registered.
  auto engine = make_engine(two_cell_config());
  EXPECT_THROW(engine.add_node("far-x", {1e39, 0.0, 0.0}, 40e3),
               milback::ContractViolation);
  EXPECT_THROW(engine.add_node("far-y", {2.0, -1e39, 0.0}, 40e3),
               milback::ContractViolation);
  EXPECT_THROW(engine.add_node("wound", {2.0, 0.0, 1e39}, 40e3),
               milback::ContractViolation);
  const std::size_t n = engine.add_node("ok", {2.0, 0.0, 0.0}, 40e3);
  EXPECT_THROW(engine.schedule_waypoint(n, 0.05, {1e39, 0.0, 0.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_waypoint(n, 0.05, {2.0, 1e39, 0.0}),
               milback::ContractViolation);
  EXPECT_THROW(engine.schedule_waypoint(n, 0.05, {2.0, 0.0, -1e39}),
               milback::ContractViolation);
  // Nothing was half-registered: the run goes through with the one node.
  const MultiCellReport report = engine.run(0.05, 1);
  EXPECT_EQ(report.nodes.size(), 1u);
}

/// The deterministic export lines of `prefix`'s cell metrics and of the
/// per-node metrics, minus the barrier-only interference gauge.
std::string cell_export(std::string_view prefix) {
  std::istringstream in(obs::metrics_jsonl(/*include_runtime=*/false));
  const std::string interference = std::string(prefix) + "interference_db";
  constexpr std::string_view kHead = "{\"name\":\"";
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with(kHead)) continue;
    const std::string_view rest = std::string_view(line).substr(kHead.size());
    const std::string_view name = rest.substr(0, rest.find('"'));
    if (name == interference) continue;
    if (name.starts_with(prefix) || name.starts_with("cell.node.shard-")) {
      out += line + "\n";
    }
  }
  return out;
}

TEST(MultiCell, OneApShardIsAStandaloneCell) {
  // A shard is a plain CellEngine: with one AP there is no handoff and no
  // interference, so shard 0 must be, bit for bit, the standalone engine
  // given the same local poses, the shard's metric prefix and the seed
  // Rng::stream_seed(seed, 0). The epoch is no multiple of the sweep period,
  // so barriers fall inside sweeps.
  constexpr double kHorizonS = 0.2;
  constexpr std::uint64_t kSeed = 2718;
  MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}};
  cfg.coverage_radius_m = 40.0;
  cfg.epoch_s = 0.0137;
  cfg.cell.service_period_s = 0.005;

  struct NodeSpec {
    std::string id;
    GlobalPose pose;
    double rate_bps;
    double burstiness;
    double join_s;
  };
  std::vector<NodeSpec> specs;
  for (std::size_t i = 0; i < 40; ++i) {
    specs.push_back(NodeSpec{
        "shard-" + std::to_string(i),
        {1.5 + 0.1 * double(i % 25), -1.5 + 0.08 * double(i % 37),
         -10.0 + 0.5 * double(i % 41)},
        i % 9 == 8 ? 0.0 : 20e3 + 3e3 * double(i % 7),  // zero-rate nodes
        i % 3 == 0 ? 0.0 : 1.0,                          // non-bursty nodes
        i % 5 == 4 ? 0.01 + 0.003 * double(i) : 0.0});   // staggered joins
  }

  obs::Registry::global().reset();
  obs::set_enabled(true, false);
  auto multi = make_engine(cfg);
  for (const auto& n : specs) {
    multi.add_node(n.id, n.pose, {n.rate_bps, n.burstiness}, n.join_s);
  }
  const MultiCellReport sharded = multi.run(kHorizonS, kSeed);
  const std::string sharded_export = cell_export("cell.c0.");

  obs::Registry::global().reset();
  CellConfig cell_cfg = cfg.cell;
  cell_cfg.metric_prefix = "cell.c0.";
  cell_cfg.sweep_threads = 1;
  Rng env(5);
  CellEngine standalone(channel::BackscatterChannel::make_default(
                            channel::Environment::indoor_office(env)),
                        cell_cfg);
  for (const auto& n : specs) {
    standalone.add_node(
        n.id, core::TrafficSpec{multi.local_pose(0, n.pose), n.rate_bps, n.burstiness},
        n.join_s);
  }
  standalone.begin(kHorizonS, Rng::stream_seed(kSeed, 0));
  const CellReport alone = standalone.finish();
  const std::string standalone_export = cell_export("cell.c0.");
  obs::Registry::global().reset();
  obs::set_enabled(false, false);

  ASSERT_EQ(sharded.cells.size(), 1u);
  const CellReport& shard = sharded.cells[0];
  EXPECT_GT(shard.service_rounds, 20u);
  EXPECT_EQ(shard.service_rounds, alone.service_rounds);
  EXPECT_EQ(shard.duration_s, alone.duration_s);
  EXPECT_EQ(shard.events_dispatched, alone.events_dispatched);
  EXPECT_EQ(shard.peak_population, alone.peak_population);
  EXPECT_EQ(shard.final_population, alone.final_population);
  EXPECT_EQ(shard.aggregate_goodput_bps, alone.aggregate_goodput_bps);
  EXPECT_EQ(shard.cell_capacity_bps, alone.cell_capacity_bps);
  EXPECT_EQ(shard.stable, alone.stable);
  EXPECT_EQ(shard.mesh.nodes.size(), alone.mesh.nodes.size());
  ASSERT_EQ(shard.nodes.size(), alone.nodes.size());
  for (std::size_t i = 0; i < shard.nodes.size(); ++i) {
    const CellNodeReport& a = shard.nodes[i];
    const CellNodeReport& b = alone.nodes[i];
    SCOPED_TRACE(a.id);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.join_time_s, b.join_time_s);
    EXPECT_EQ(a.leave_time_s, b.leave_time_s);
    EXPECT_EQ(a.offered_bits, b.offered_bits);
    EXPECT_EQ(a.delivered_bits, b.delivered_bits);
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
    EXPECT_EQ(a.p50_latency_s, b.p50_latency_s);
    EXPECT_EQ(a.p95_latency_s, b.p95_latency_s);
    EXPECT_EQ(a.peak_queue_bits, b.peak_queue_bits);
    EXPECT_EQ(a.final_queue_bits, b.final_queue_bits);
    EXPECT_EQ(a.service_rate_bps, b.service_rate_bps);
    EXPECT_EQ(a.rounds_served, b.rounds_served);
  }
  EXPECT_NE(sharded_export.find("\"cell.c0.queue_depth\""), std::string::npos);
  EXPECT_NE(sharded_export.find("\"cell.node.shard-0.latency_s\""), std::string::npos);
  EXPECT_EQ(sharded_export, standalone_export);
}

}  // namespace
}  // namespace milback::cell
