// cell_mesh: a 64-tag warehouse cell with churn, blockage and a relay mesh.
//
// Repetition: one CellEngine over 8 aisles x 8 bays of pallet tags fanned
// out from a dock AP, 2.0 s of simulated time on a per-repetition seed.
// The scene carries the rack walls and forklift blocker of the
// warehouse_aisles example, a dock-door blockage every 0.4 s, one tag in
// seven moving and one in three joining late, and a mesh with three surveyed
// anchors so the deep bays reach the AP through relays. Operation: one
// advance_to over a 10 ms slice of simulated time; begin() and finish() are
// part of the repetition. It exercises the event queue, the per-sweep
// TrialRunner fan-out, PathSet budget probes and mesh discovery and
// relaying; the radar pipeline runs only in finish(), for the radar fixes.
#include <cmath>
#include <vector>

#include "e2e.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/cell/cell_engine.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/mesh/neighbor_table.hpp"
#include "milback/mesh/routing.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/units.hpp"

namespace e2e {

namespace {

using milback::Rng;
using milback::channel::NodePose;

constexpr std::size_t kAisles = 8;
constexpr std::size_t kBays = 8;
constexpr std::size_t kTags = kAisles * kBays;
constexpr double kHorizonS = 2.0;
constexpr double kSliceS = 0.01;
constexpr std::size_t kSlices = 200;  // kHorizonS / kSliceS
constexpr std::size_t kWarmupSlices = 20;
constexpr std::uint64_t kWarmupRep = 0xffff;
// Every tag faces the AP at the same angle. The orientation decides which
// deep-bay tags reach the AP directly, so a drawn one (8-16 deg) made the
// events of a repetition vary from 39k to 95k.
constexpr double kOrientationDeg = 12.0;

double aisle_azimuth_deg(std::size_t aisle) { return -35.0 + 10.0 * double(aisle); }
double bay_distance_m(std::size_t bay) { return 2.0 + 2.5 * double(bay); }

milback::mesh::MeshConfig mesh_config() {
  milback::mesh::MeshConfig mc;
  mc.relay_snr_at_1m_db = 31.0;
  // Bay-1 tags of the two outer aisles and the middle one are surveyed.
  for (const std::size_t aisle : {std::size_t{0}, std::size_t{4}, std::size_t{7}}) {
    const double az = milback::deg2rad(aisle_azimuth_deg(aisle));
    const double d = bay_distance_m(1);
    mc.anchors.push_back({std::uint32_t(aisle * kBays + 1), d * std::cos(az), d * std::sin(az)});
  }
  return mc;
}

milback::channel::MultipathConfig scene() {
  milback::channel::MultipathConfig mp;
  mp.walls.push_back({0.5, 1.6, 20.5, 1.6, 2.0});
  mp.walls.push_back({0.5, -1.6, 20.5, -1.6, 2.0});
  mp.blockers.push_back({11.0, 0.3, 0.2, 0.0, 0.5, 30.0});
  return mp;
}

// Builds repetition `rep`'s engine: every draw comes from the tag's stream.
milback::cell::CellEngine build(std::uint64_t seed, std::uint64_t rep) {
  Rng env_rng(kOfficeSceneSeed);
  milback::cell::CellEngine engine(milback::channel::BackscatterChannel::make_default(
      milback::channel::Environment::indoor_office(env_rng)));
  for (std::size_t i = 0; i < kTags; ++i) {
    Rng rng = Rng::stream(seed, rep, i);
    const std::size_t aisle = i / kBays;
    const std::size_t bay = i % kBays;
    const NodePose pose{bay_distance_m(bay), aisle_azimuth_deg(aisle), kOrientationDeg};
    const double join_s = i % 3 == 2 ? rng.uniform(0.05, 1.5) : 0.0;
    engine.add_node("w" + std::to_string(i), {.pose = pose, .arrival_rate_bps = 30e3}, join_s);
    if (i % 7 == 6) {
      const NodePose to{pose.distance_m + rng.uniform(-1.0, 1.0), pose.azimuth_deg,
                        pose.orientation_deg};
      engine.schedule_move(i, join_s + rng.uniform(0.1, 0.4), to);
    }
  }
  // A truck in the dock door: 18 dB across every AP ray for 60 ms of each 0.4 s.
  for (std::size_t k = 0; k < 5; ++k) {
    const double t = 0.2 + 0.4 * double(k);
    engine.schedule_blockage(t, t + 0.06, 18.0);
  }
  engine.set_multipath(scene());
  engine.set_mesh(mesh_config());
  return engine;
}

std::uint64_t run_seed(std::uint64_t seed, std::uint64_t rep) {
  return Rng::stream(seed, rep, kTags).engine()();
}

// Bookkeeping the traced breakdown reads back from the last repetition.
struct LastRep {
  double begin_ms = 0.0;
  double finish_ms = 0.0;
  std::size_t radar_fixes = 0;
  std::vector<NodePose> alive_poses;
};

void run_rep(milback::cell::CellEngine& engine, std::uint64_t seed, std::uint64_t rep,
             RepOut& out, LastRep& last) {
  const double begin_s = timed_s([&] { engine.begin(kHorizonS, run_seed(seed, rep)); });
  last.begin_ms = 1e3 * begin_s;
  out.work_s += begin_s;
  for (std::size_t s = 1; s <= kSlices; ++s) {
    const double slice_s = timed_s([&] { engine.advance_to(double(s) * kSliceS); });
    out.op_ms.push_back(1e3 * slice_s);
    // milback-analyze: no-reduction(serial sum of host times in slice order; never simulated)
    out.work_s += slice_s;
  }
  milback::cell::CellReport report;
  const double finish_s = timed_s([&] { report = engine.finish(); });
  last.finish_ms = 1e3 * finish_s;
  out.work_s += finish_s;

  out.sim_events = report.events_dispatched;
  out.goodput_mbps = report.aggregate_goodput_bps / 1e6;
  out.bytes_per_node = double(engine.memory_bytes()) / double(kTags);
  out.digest.add(std::uint64_t(report.events_dispatched));
  out.digest.add(std::uint64_t(report.service_rounds));
  out.digest.add(report.aggregate_goodput_bps);
  out.digest.add(report.stable);
  out.digest.add(std::uint64_t(report.mesh.discoveries));
  out.digest.add(std::uint64_t(report.mesh.forwards));
  out.digest.add(report.mesh.relayed_bits);
  last.radar_fixes = 0;
  last.alive_poses.clear();
  for (std::size_t i = 0; i < kTags; ++i) {
    const auto& n = report.nodes[i];
    const auto& m = report.mesh.nodes[i];
    out.digest.add(n.delivered_bits);
    out.digest.add(std::uint64_t(n.rounds_served));
    out.digest.add(std::uint64_t(m.hop_count));
    out.digest.add(m.pos_error_m);
    // Every tag has joined and none leaves by the horizon: each must hold a
    // route to the AP, direct or relayed.
    out.attempted += 1;
    out.failed += m.hop_count == 0 ? 1 : 0;
    if (m.localized) out.loc_err_cm.push_back(100.0 * m.pos_error_m);
    last.radar_fixes += m.localized && m.radar_fix ? 1 : 0;
    if (engine.node_alive(i)) last.alive_poses.push_back(engine.node_pose(i));
  }
}

}  // namespace

void cell_mesh(const Options& opt, Result& result) {
  result.op_name = "10 ms slice";
  LastRep last;
  // Set-up: an engine driven through its first slices (plan and window
  // caches, pools). Each repetition then builds its own engine — a
  // CellEngine runs once — which costs under 0.1% of the repetition.
  const auto setup = [&] {
    auto engine = build(opt.seed, kWarmupRep);
    engine.begin(kHorizonS, run_seed(opt.seed, kWarmupRep));
    for (std::size_t k = 1; k <= kWarmupSlices; ++k) engine.advance_to(double(k) * kSliceS);
  };
  const auto rep_fn = [&](std::uint64_t rep, RepOut& out) {
    auto engine = build(opt.seed, rep);
    run_rep(engine, opt.seed, rep, out, last);
  };
  if (!opt.traced) {
    timed_phase(opt, 5, setup, rep_fn, result);
    return;
  }

  timed_setup(setup, result);
  traced_rep_phase(rep_fn, result);
  const double ops = double(kSlices);
  const double threads = double(milback::sim::resolve_thread_count(0));
  const auto engine = build(opt.seed, 0);
  const auto& channel = engine.link().channel();
  const auto& poses = last.alive_poses;
  const double budget = 0.03 * opt.seconds;
  auto& rows = result.layers;

  // begin() and finish() were timed in the traced pass.
  rows.push_back({"cell.begin", "op", 1.0 / ops, last.begin_ms});
  rows.push_back({"cell.finish", "op", 1.0 / ops, last.finish_ms});
  Rng rng(0x6c61796572ULL);
  const milback::ap::Localizer localizer;
  rows.push_back({"ap.localize", "cell.finish", double(last.radar_fixes) / ops,
                  time_per_call_ms(poses.size(), budget, [&](std::size_t k) {
                    return localizer.localize(channel, poses[k], rng).range_m;
                  })});

  // Per-sweep rate probes run on the TrialRunner fan-out, one task each.
  const auto& per_op = result.metrics;
  rows.push_back({"cell.probe_service_rate", "op", per_op.at("sim.tasks.per_op"),
                  time_per_call_ms(poses.size(), budget,
                                   [&](std::size_t k) {
                                     return milback::cell::probe_service_rate_bps(
                                         channel, poses[k], engine.config().rate);
                                   }),
                  threads});
  std::size_t paths = 0;
  for (const auto& p : poses) paths += channel.node_path_set(p).paths.size();
  const double path_sets =
      (per_op.at("channel.paths_active.per_op") + per_op.at("channel.blockage_sever.per_op")) *
      double(poses.size()) / double(paths);
  rows.push_back({"channel.node_path_set", "cell.probe_service_rate", path_sets,
                  time_per_call_ms(poses.size(), budget,
                                   [&](std::size_t k) {
                                     return double(channel.node_path_set(poses[k]).paths.size());
                                   }),
                  threads});
  rows.push_back({"cell.sdm_partition", "op", per_op.at("cell.sweeps.per_op"),
                  time_per_call_ms(1, budget, [&](std::size_t) {
                    return double(milback::cell::sdm_partition(
                                      poses, engine.config().network.sdm_min_separation_deg)
                                      .size());
                  })});
  const milback::sim::TrialRunner runner;
  const double regions = per_op.at("sim.regions.per_op");
  const auto tasks_per_region =
      std::size_t(std::llround(per_op.at("sim.tasks.per_op") / std::max(regions, 1e-9)));
  rows.push_back({"sim.for_each_region", "op", regions,
                  time_per_call_ms(1, budget, [&](std::size_t) {
                    runner.for_each(tasks_per_region, [](std::size_t) {});
                    return 0.0;
                  })});

  // Route discovery: the neighbor table and flood over the final topology.
  std::vector<double> xs, ys;
  std::vector<std::uint8_t> alive(poses.size(), 1), direct;
  for (const auto& p : poses) {
    xs.push_back(p.distance_m * std::cos(milback::deg2rad(p.azimuth_deg)));
    ys.push_back(p.distance_m * std::sin(milback::deg2rad(p.azimuth_deg)));
    direct.push_back(
        milback::cell::probe_service_rate_bps(channel, p, engine.config().rate) > 0.0 ? 1 : 0);
  }
  const auto mc = mesh_config();
  const auto mp = scene();
  const double discoveries = per_op.at("mesh.route_discovery.per_op");
  rows.push_back({"mesh.build_neighbor_table", "op", discoveries,
                  time_per_call_ms(1, budget, [&](std::size_t) {
                    return double(milback::mesh::build_neighbor_table(mc, mp, 0.0, 0.0, xs, ys,
                                                                      alive, 1.0)
                                      .edge_count());
                  })});
  const auto table = milback::mesh::build_neighbor_table(mc, mp, 0.0, 0.0, xs, ys, alive, 1.0);
  rows.push_back({"mesh.build_routes", "op", discoveries,
                  time_per_call_ms(1, budget, [&](std::size_t) {
                    return double(
                        milback::mesh::build_routes(table, direct, mc.max_ttl).routes.size());
                  })});
}

}  // namespace e2e
