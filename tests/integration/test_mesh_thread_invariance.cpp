// Mesh thread-count invariance: a relay-mesh scenario under churn and
// blockage must produce a bit-identical CellReport — including every field
// of the MeshReport — with MILBACK_SIM_THREADS set to 1 and to 4. Route
// discovery, relay forwarding and anchor fusion are all serial index-order
// math, and the radar fixes in finalize() are keyed
// Rng::stream(seed, kMeshStreamTag, node), so the worker count (which only
// fans out the per-sweep rate probes) cannot leak into the mesh outcome.
//
// The suite name matches the tsan test preset's filter
// (ThreadInvariance), so this is also the race-detector workload for the
// mesh-enabled engine.
#include <gtest/gtest.h>

#include <string>

#include "milback/cell/cell_engine.hpp"
#include "milback/channel/multipath.hpp"

#include "invariance_support.hpp"

namespace milback::cell {
namespace {

CellEngine make_engine() {
  Rng env(5);
  return CellEngine(channel::BackscatterChannel::make_default(
                        channel::Environment::indoor_office(env)),
                    CellConfig{});
}

/// Mesh churn scenario: a two-aisle deployment with relay chains, staggered
/// joins, a relay departure (forcing a reroute with in-flight chunks), a
/// mobility waypoint, a blockage episode, and surveyed anchors.
void build_mesh_churn_scenario(CellEngine& engine) {
  // Aisle A along 0 deg: direct head, relay, two dark tags.
  engine.add_node("a-head", {.pose = {2.0, 0.0, 12.0}, .arrival_rate_bps = 60e3});
  engine.add_node("a-relay", {.pose = {8.0, 0.0, 12.0}, .arrival_rate_bps = 0.0});
  engine.add_node("a-mid", {.pose = {14.0, 0.0, 12.0}, .arrival_rate_bps = 40e3});
  engine.add_node("a-far", {.pose = {20.0, 0.0, 12.0}, .arrival_rate_bps = 40e3});
  // Aisle B along 30 deg, with a backup relay near aisle A's.
  engine.add_node("b-head", {.pose = {3.0, 30.0, 12.0}, .arrival_rate_bps = 60e3});
  engine.add_node("b-relay", {.pose = {8.0, 20.0, 12.0}, .arrival_rate_bps = 0.0});
  engine.add_node("b-far",
                  {.pose = {14.0, 10.0, 12.0}, .arrival_rate_bps = 30e3},
                  /*join_time_s=*/0.04);
  // Churn: aisle A's relay departs mid-run with chunks likely on board;
  // a-far reroutes through whatever the next flood finds.
  engine.schedule_leave(1, 0.12);
  engine.schedule_move(6, 0.08, {13.0, 5.0, 12.0});
  engine.schedule_blockage(0.06, 0.10, 18.0);
  channel::MultipathConfig mp;
  mp.walls.push_back({0.5, 1.2, 16.0, 1.2, 8.0});
  engine.set_multipath(mp);

  mesh::MeshConfig mc;
  mc.anchors = {{0, 2.0, 0.0}, {1, 8.0, 0.0}, {5, 7.52, 2.74}};
  engine.set_mesh(mc);
}

void expect_mesh_reports_identical(const mesh::MeshReport& a,
                                   const mesh::MeshReport& b) {
  EXPECT_EQ(a.discoveries, b.discoveries);
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.forwards, b.forwards);
  EXPECT_EQ(a.orphan_sweeps, b.orphan_sweeps);
  EXPECT_EQ(a.delivered_chunks, b.delivered_chunks);
  EXPECT_DOUBLE_EQ(a.relayed_bits, b.relayed_bits);
  EXPECT_DOUBLE_EQ(a.dropped_bits, b.dropped_bits);
  EXPECT_DOUBLE_EQ(a.peak_relay_queue_bits, b.peak_relay_queue_bits);
  EXPECT_EQ(a.max_hop_count, b.max_hop_count);
  EXPECT_EQ(a.connected, b.connected);
  EXPECT_EQ(a.population, b.population);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.nodes[i].node, b.nodes[i].node);
    EXPECT_EQ(a.nodes[i].reachable, b.nodes[i].reachable);
    EXPECT_EQ(a.nodes[i].hop_count, b.nodes[i].hop_count);
    EXPECT_EQ(a.nodes[i].next_hop, b.nodes[i].next_hop);
    EXPECT_DOUBLE_EQ(a.nodes[i].route_margin_db, b.nodes[i].route_margin_db);
    EXPECT_DOUBLE_EQ(a.nodes[i].relayed_bits, b.nodes[i].relayed_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].origin_bits, b.nodes[i].origin_bits);
    EXPECT_EQ(a.nodes[i].origin_chunks, b.nodes[i].origin_chunks);
    EXPECT_DOUBLE_EQ(a.nodes[i].mean_relay_latency_s,
                     b.nodes[i].mean_relay_latency_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].in_flight_bits, b.nodes[i].in_flight_bits);
    EXPECT_EQ(a.nodes[i].localized, b.nodes[i].localized);
    EXPECT_EQ(a.nodes[i].radar_fix, b.nodes[i].radar_fix);
    EXPECT_DOUBLE_EQ(a.nodes[i].est_x_m, b.nodes[i].est_x_m);
    EXPECT_DOUBLE_EQ(a.nodes[i].est_y_m, b.nodes[i].est_y_m);
    EXPECT_DOUBLE_EQ(a.nodes[i].pos_error_m, b.nodes[i].pos_error_m);
  }
}

TEST(MeshThreadInvariance, RelayChurnScenarioIsBitIdentical) {
  CellReport serial, parallel;
  {
    ScopedThreads guard("1");
    auto engine = make_engine();
    build_mesh_churn_scenario(engine);
    serial = engine.run(0.25, 4242);
  }
  {
    ScopedThreads guard("4");
    auto engine = make_engine();
    build_mesh_churn_scenario(engine);
    parallel = engine.run(0.25, 4242);
  }
  // Sanity: the scenario exercises the mesh for real — relays forwarded,
  // routes rebuilt after churn, chunks delivered multi-hop, positions fixed.
  EXPECT_GT(serial.mesh.forwards, 0u);
  EXPECT_GE(serial.mesh.reroutes, 1u);
  EXPECT_GT(serial.mesh.delivered_chunks, 0u);
  EXPECT_GE(serial.mesh.max_hop_count, 2u);
  ASSERT_EQ(serial.mesh.nodes.size(), 7u);

  // The whole report — traffic and mesh — is bit-identical across workers.
  EXPECT_EQ(serial.service_rounds, parallel.service_rounds);
  EXPECT_EQ(serial.events_dispatched, parallel.events_dispatched);
  EXPECT_DOUBLE_EQ(serial.aggregate_goodput_bps, parallel.aggregate_goodput_bps);
  ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
  for (std::size_t i = 0; i < serial.nodes.size(); ++i) {
    SCOPED_TRACE(serial.nodes[i].id);
    EXPECT_DOUBLE_EQ(serial.nodes[i].offered_bits, parallel.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(serial.nodes[i].delivered_bits,
                     parallel.nodes[i].delivered_bits);
    EXPECT_DOUBLE_EQ(serial.nodes[i].mean_latency_s,
                     parallel.nodes[i].mean_latency_s);
    EXPECT_DOUBLE_EQ(serial.nodes[i].final_queue_bits,
                     parallel.nodes[i].final_queue_bits);
  }
  expect_mesh_reports_identical(serial.mesh, parallel.mesh);
}

TEST(MeshThreadInvariance, MeshReportIsSeedDeterministic) {
  CellReport first, second;
  {
    auto engine = make_engine();
    build_mesh_churn_scenario(engine);
    first = engine.run(0.25, 99);
  }
  {
    auto engine = make_engine();
    build_mesh_churn_scenario(engine);
    second = engine.run(0.25, 99);
  }
  expect_mesh_reports_identical(first.mesh, second.mesh);
}

}  // namespace
}  // namespace milback::cell
