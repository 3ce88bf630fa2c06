// Mesh integration suite: the store-and-forward relay path end to end.
//
//  - MeshSmoke: a rack-canyon chain where tags 14-20 m out (dark at every
//    single-hop rate) reach the AP through 2-3 relay hops, with per-origin
//    latency accounting (CI runs this suite in the scale-smoke job).
//  - MeshEquivalence: with no mesh installed the engine is field-exact with
//    the pre-mesh build.
//  - MeshBehavior: reroute on relay churn, orphan accounting, the relay
//    buffer bound, anchor-fused localization of dark nodes, and radar fixes
//    from the cell link's own localizer.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/cell/cell_engine.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

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

void expect_reports_identical(const CellReport& a, const CellReport& b) {
  EXPECT_EQ(a.service_rounds, b.service_rounds);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.peak_population, b.peak_population);
  EXPECT_EQ(a.final_population, b.final_population);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_DOUBLE_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
  EXPECT_DOUBLE_EQ(a.cell_capacity_bps, b.cell_capacity_bps);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE(a.nodes[i].id);
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
    EXPECT_EQ(a.nodes[i].rounds_served, b.nodes[i].rounds_served);
    EXPECT_DOUBLE_EQ(a.nodes[i].offered_bits, b.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].delivered_bits, b.nodes[i].delivered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].mean_latency_s, b.nodes[i].mean_latency_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].final_queue_bits, b.nodes[i].final_queue_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].service_rate_bps, b.nodes[i].service_rate_bps);
  }
}

// The rack canyon: a straight aisle away from the AP. Direct coverage ends
// at ~11 m in the indoor-office budget, so "mid" and "far" are dark at
// every single-hop rate and only reachable through the relay chain.
struct Canyon {
  std::size_t near = 0;   // 2 m  - direct at 40 Mbps
  std::size_t relay = 0;  // 8 m  - direct at 10 Mbps, first relay
  std::size_t mid = 0;    // 14 m - dark, 2 hops
  std::size_t far = 0;    // 20 m - dark, 3 hops
};

Canyon build_canyon(CellEngine& engine) {
  Canyon c;
  c.near = engine.add_node("near", spec(2.0, 0.0));
  c.relay = engine.add_node("relay", spec(8.0, 0.0, /*rate_bps=*/0.0));
  c.mid = engine.add_node("mid", spec(14.0, 0.0, 50e3));
  c.far = engine.add_node("far", spec(20.0, 0.0, 50e3));
  return c;
}

TEST(MeshSmoke, RackCanyonReachesApThroughRelayChain) {
  auto engine = make_engine();
  const auto c = build_canyon(engine);
  mesh::MeshConfig mc;
  mc.localize_direct = false;  // topology + traffic smoke; no radar cost
  engine.set_mesh(mc);
  const auto report = engine.run(0.3, 42);

  ASSERT_EQ(report.mesh.nodes.size(), 4u);
  EXPECT_EQ(report.mesh.nodes[c.near].hop_count, 1u);
  EXPECT_EQ(report.mesh.nodes[c.relay].hop_count, 1u);
  EXPECT_EQ(report.mesh.nodes[c.mid].hop_count, 2u);
  EXPECT_EQ(report.mesh.nodes[c.mid].next_hop, c.relay);
  EXPECT_EQ(report.mesh.nodes[c.far].hop_count, 3u);
  EXPECT_EQ(report.mesh.nodes[c.far].next_hop, c.mid);
  EXPECT_EQ(report.mesh.connected, 4u);
  EXPECT_EQ(report.mesh.population, 4u);
  EXPECT_EQ(report.mesh.max_hop_count, 3u);
  EXPECT_GE(report.mesh.discoveries, 1u);
  EXPECT_GT(report.mesh.forwards, 0u);
  EXPECT_GT(report.mesh.delivered_chunks, 0u);
  EXPECT_DOUBLE_EQ(report.mesh.dropped_bits, 0.0);

  // Dark tags deliver the bulk of their backlog through the chain (the tail
  // of the pipeline is still in flight when the run ends).
  for (const auto i : {c.mid, c.far}) {
    SCOPED_TRACE(report.nodes[i].id);
    EXPECT_GT(report.nodes[i].offered_bits, 0.0);
    EXPECT_GT(report.nodes[i].delivered_bits,
              0.7 * report.nodes[i].offered_bits);
    EXPECT_GT(report.mesh.nodes[i].origin_chunks, 0u);
    EXPECT_GT(report.mesh.nodes[i].mean_relay_latency_s, 0.0);
  }
  // One more hop costs strictly more end-to-end latency (one extra sweep).
  EXPECT_GT(report.mesh.nodes[c.far].mean_relay_latency_s,
            report.mesh.nodes[c.mid].mean_relay_latency_s);
  // The first relay moved everyone's bits; the origins moved nobody's.
  EXPECT_GT(report.mesh.nodes[c.relay].relayed_bits, 0.0);
  EXPECT_DOUBLE_EQ(report.mesh.nodes[c.near].relayed_bits, 0.0);
}

TEST(MeshEquivalence, NoMeshRunIsUntouchedByTheMeshLayer) {
  // Churn + walls + a blockage episode: the full event surface, no mesh.
  const auto scenario = [](CellEngine& engine) {
    engine.add_node("a", spec(2.0, -25.0));
    const auto b = engine.add_node("b", spec(3.0, 20.0));
    engine.add_node("late", spec(4.0, 60.0), /*join_time_s=*/0.1);
    engine.schedule_move(b, 0.12, {5.0, -10.0, 12.0});
    engine.schedule_leave(b, 0.22);
    engine.schedule_blockage(0.05, 0.15, 18.0);
    channel::MultipathConfig mp;
    mp.walls.push_back({0.5, 0.9, 3.5, 0.9, 10.0});
    engine.set_multipath(mp);
  };
  auto plain = make_engine();
  scenario(plain);
  const auto ra = plain.run(0.3, 7);
  EXPECT_GT(ra.service_rounds, 0u);
  EXPECT_TRUE(ra.mesh.nodes.empty());
  EXPECT_EQ(ra.mesh.discoveries, 0u);
}

TEST(MeshEquivalence, AllDirectPopulationKeepsTrafficFieldsExact) {
  const auto scenario = [](CellEngine& engine) {
    engine.add_node("a", spec(2.0, -25.0));
    engine.add_node("b", spec(3.0, 20.0));
    engine.add_node("c", spec(5.0, 70.0));
  };
  auto plain = make_engine();
  scenario(plain);
  auto meshed = make_engine();
  scenario(meshed);
  mesh::MeshConfig mc;
  mc.localize_direct = false;
  meshed.set_mesh(mc);
  const auto ra = plain.run(0.3, 11);
  const auto rb = meshed.run(0.3, 11);
  // Everyone is AP-direct: the mesh observes the population but never
  // touches a queue, so every traffic field matches bit-for-bit.
  expect_reports_identical(ra, rb);
  ASSERT_EQ(rb.mesh.nodes.size(), 3u);
  for (const auto& n : rb.mesh.nodes) {
    EXPECT_EQ(n.hop_count, 1u);
    EXPECT_DOUBLE_EQ(n.relayed_bits, 0.0);
    EXPECT_DOUBLE_EQ(n.origin_bits, 0.0);
  }
  EXPECT_EQ(rb.mesh.forwards, 0u);
  EXPECT_DOUBLE_EQ(rb.mesh.relayed_bits, 0.0);
}

TEST(MeshBehavior, RelayLeaveTriggersRerouteOntoTheBackupRelay) {
  auto engine = make_engine();
  const auto r1 = engine.add_node("r1", spec(8.0, 0.0, 0.0));
  const auto r2 = engine.add_node("r2", spec(8.0, 20.0, 0.0));
  const auto far = engine.add_node("far", spec(14.0, 0.0, 50e3));
  engine.add_node("near", spec(2.0, -40.0));  // keeps sweeps alive
  engine.schedule_leave(r1, 0.15);
  mesh::MeshConfig mc;
  mc.localize_direct = false;
  engine.set_mesh(mc);
  const auto report = engine.run(0.3, 23);

  // r1 (6 m away) wins the first discovery; after it leaves, the flood
  // reroutes far onto r2 (~7 m away) and traffic keeps flowing.
  EXPECT_GE(report.mesh.reroutes, 1u);
  EXPECT_EQ(report.mesh.nodes[far].hop_count, 2u);
  EXPECT_EQ(report.mesh.nodes[far].next_hop, r2);
  EXPECT_GT(report.mesh.nodes[r2].relayed_bits, 0.0);
  EXPECT_GT(report.nodes[far].delivered_bits,
            0.5 * report.nodes[far].offered_bits);
}

TEST(MeshBehavior, DarkNodeWithoutRelaysIsAnOrphan) {
  auto engine = make_engine();
  engine.add_node("near", spec(2.0, 0.0));
  const auto lost = engine.add_node("lost", spec(20.0, 120.0, 50e3));
  mesh::MeshConfig mc;
  mc.localize_direct = false;
  engine.set_mesh(mc);
  const auto report = engine.run(0.2, 31);
  EXPECT_FALSE(report.mesh.nodes[lost].reachable);
  EXPECT_GT(report.mesh.orphan_sweeps, 0u);
  EXPECT_DOUBLE_EQ(report.nodes[lost].delivered_bits, 0.0);
  EXPECT_GT(report.nodes[lost].final_queue_bits, 0.0);
  EXPECT_EQ(report.mesh.connected, 1u);
  EXPECT_EQ(report.mesh.population, 2u);
}

TEST(MeshBehavior, RelayBufferBoundsPeakOccupancy) {
  auto engine = make_engine();
  build_canyon(engine);
  mesh::MeshConfig mc;
  mc.localize_direct = false;
  mc.relay_buffer_bits = 2048.0;
  engine.set_mesh(mc);
  const auto report = engine.run(0.3, 42);
  EXPECT_GT(report.mesh.peak_relay_queue_bits, 0.0);
  EXPECT_LE(report.mesh.peak_relay_queue_bits, 2048.0 + 1e-6);
}

TEST(MeshBehavior, AnchorFusionLocalizesDarkNodesRadarCoversDirect) {
  auto engine = make_engine();
  const auto c = build_canyon(engine);
  const auto side = engine.add_node("side", spec(8.0, 20.0, 0.0));
  mesh::MeshConfig mc;
  // Surveyed positions = true plan positions of three non-collinear nodes.
  mc.anchors = {{std::uint32_t(c.near), 2.0, 0.0},
                {std::uint32_t(c.relay), 8.0, 0.0},
                {std::uint32_t(side), 8.0 * std::cos(20.0 * 3.14159265 / 180.0),
                 8.0 * std::sin(20.0 * 3.14159265 / 180.0)}};
  engine.set_mesh(mc);
  const auto report = engine.run(0.2, 42);

  // Dark tags localize by hop fusion (never radar), with coarse-but-bounded
  // error; AP-direct tags get the full radar fix.
  for (const auto i : {c.mid, c.far}) {
    SCOPED_TRACE(report.nodes[i].id);
    EXPECT_TRUE(report.mesh.nodes[i].localized);
    EXPECT_FALSE(report.mesh.nodes[i].radar_fix);
    EXPECT_LT(report.mesh.nodes[i].pos_error_m, 12.0);
  }
  EXPECT_TRUE(report.mesh.nodes[c.near].localized);
  EXPECT_TRUE(report.mesh.nodes[c.near].radar_fix);
  EXPECT_LT(report.mesh.nodes[c.near].pos_error_m, 1.0);
  // Anchors report their surveyed positions exactly via fusion unless the
  // radar already fixed them (relay/side are direct -> radar).
  EXPECT_TRUE(report.mesh.nodes[c.relay].localized);
}

TEST(MeshBehavior, RadarFixesUseTheCellLinksLocalizer) {
  // A non-default AP localizer: the mesh's radar fixes must come from it,
  // on the link's own channel and the mesh's per-node stream.
  CellConfig cfg;
  cfg.network.link.ap.localizer.slope_error_rms = 0.03;
  auto engine = make_engine(cfg);
  const auto c = build_canyon(engine);
  engine.add_node("side", spec(3.0, 25.0));
  engine.set_mesh(mesh::MeshConfig{});
  constexpr std::uint64_t kSeed = 42;
  const auto report = engine.run(0.2, kSeed);

  std::size_t radar_fixes = 0;
  std::size_t differs_from_default = 0;
  const ap::Localizer default_localizer;
  for (std::size_t i = 0; i < engine.node_count(); ++i) {
    SCOPED_TRACE(report.nodes[i].id);
    const auto& node = report.mesh.nodes[i];
    if (node.hop_count != 1) {
      EXPECT_FALSE(node.radar_fix);
      continue;
    }
    const auto& pose = engine.node_pose(i);
    auto rng = Rng::stream(kSeed, mesh::kMeshStreamTag, std::uint64_t{i});
    const auto fix = engine.link().localize(pose, rng);
    ASSERT_EQ(node.radar_fix, fix.detected);
    if (!fix.detected) continue;
    ++radar_fixes;
    EXPECT_EQ(node.est_x_m, fix.range_m * std::cos(deg2rad(fix.angle_deg)));
    EXPECT_EQ(node.est_y_m, fix.range_m * std::sin(deg2rad(fix.angle_deg)));
    auto default_rng = Rng::stream(kSeed, mesh::kMeshStreamTag, std::uint64_t{i});
    const auto default_fix =
        default_localizer.localize(engine.link().channel(), pose, default_rng);
    if (default_fix.range_m != fix.range_m) ++differs_from_default;
  }
  // Sanity: direct nodes got radar fixes, and the configured localizer
  // gives other fixes than a default-built one would.
  EXPECT_GE(radar_fixes, 2u);
  EXPECT_GT(differs_from_default, 0u);
  EXPECT_EQ(report.mesh.nodes[c.near].hop_count, 1u);
}

TEST(MeshBehavior, SetMeshAfterBeginIsRejected) {
  auto engine = make_engine();
  engine.add_node("a", spec(2.0, 0.0));
  engine.begin(0.1, 1);
  EXPECT_THROW(engine.set_mesh(mesh::MeshConfig{}), milback::ContractViolation);
}

}  // namespace
}  // namespace milback::cell
