// campus_100k: a 25-cell x 4000-node campus through MultiCellEngine.
//
// Repetition: build the bench_perf_pipeline make_campus layout (a 5 x 5 AP
// grid at 40 m pitch, reuse-4 channels, 15 m coverage; every 50th node roams
// to the neighbouring AP), then run 1.0 s of simulated time (20 epochs) on a
// per-repetition seed. The build counts as set-up. Operation: the whole
// run() — the engine exposes no finer step — so its latency percentiles
// cover few samples. It is the scale workload: about 2M events, 2000
// handoffs, epoch barriers and the SoA/pool memory, with each shard's sweep
// fan-out pinned to one worker. A change to per-sweep fan-out should move
// cell_mesh and leave this workload unchanged.
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "milback/cell/multi_cell.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/obs/registry.hpp"
#include "milback/sim/trial_runner.hpp"

namespace e2e {

namespace {

using milback::Rng;

constexpr std::size_t kCells = 25;
constexpr std::size_t kNodesPerCell = 4000;
constexpr std::size_t kNodes = kCells * kNodesPerCell;
constexpr std::size_t kSide = 5;  // sqrt(kCells)
constexpr double kPitchM = 40.0;
constexpr double kHorizonS = 1.0;

double ap_x_m(std::size_t c) { return kPitchM * double(c % kSide); }
double ap_y_m(std::size_t c) { return kPitchM * double(c / kSide); }

milback::cell::GlobalPose home_pose(std::size_t i) {
  const std::size_t home = i % kCells;
  return {ap_x_m(home) + 0.5 + 0.05 * double(i % 37), ap_y_m(home) + 0.07 * double(i % 41) - 1.5,
          -20.0 + 1.7 * double(i % 25)};
}

milback::channel::BackscatterChannel prototype() {
  Rng env_rng(kOfficeSceneSeed);
  return milback::channel::BackscatterChannel::make_default(
      milback::channel::Environment::indoor_office(env_rng));
}

milback::cell::MultiCellEngine build() {
  milback::cell::MultiCellConfig cfg;
  for (std::size_t c = 0; c < kCells; ++c) cfg.aps.push_back({ap_x_m(c), ap_y_m(c)});
  cfg.coverage_radius_m = 15.0;
  cfg.epoch_s = 0.05;
  cfg.frequency_channels = 4;
  cfg.cell.service_period_s = 0.05;
  milback::cell::MultiCellEngine engine(prototype(), std::move(cfg));
  engine.reserve_nodes(kNodesPerCell);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto pose = home_pose(i);
    engine.add_node("n" + std::to_string(i), pose, 5e3 + 1e3 * double(i % 3));
    if (i % 50 == 7) {
      const std::size_t home = i % kCells;
      const double to_x = home % kSide == 0 ? ap_x_m(home) + 37.0 : ap_x_m(home) - 37.0;
      engine.schedule_waypoint(i, 0.06, {to_x, pose.y_m, pose.orientation_deg});
    }
  }
  return engine;
}

// Per-repetition run seed: the layout is fixed, the traffic draws are not.
std::uint64_t run_seed(std::uint64_t seed, std::uint64_t rep) {
  return Rng::stream(seed, rep).engine()();
}

struct LastRep {
  double add_node_ms = 0.0;  ///< Build time per add_node.
};

void run_rep(std::uint64_t seed, std::uint64_t rep, RepOut& out, LastRep& last) {
  // A live registry would register three metrics per node at add_node; the
  // traced breakdown covers the run, so the build stays untraced.
  const bool traced = milback::obs::metrics_enabled();
  milback::obs::set_enabled(false, false);
  std::optional<milback::cell::MultiCellEngine> engine;
  out.setup_s = timed_s([&] { engine.emplace(build()); });
  milback::obs::set_enabled(traced, traced);
  last.add_node_ms = 1e3 * out.setup_s / double(kNodes);

  // The run spreads over the workers for seconds: a sampler times the
  // reference beside it.
  milback::cell::MultiCellReport report;
  const double run_s = sampled_s([&] { report = engine->run(kHorizonS, run_seed(seed, rep)); });
  out.op_ms.push_back(1e3 * run_s);
  out.work_s = run_s;

  out.goodput_mbps = report.aggregate_goodput_bps / 1e6;
  out.bytes_per_node = double(engine->memory_bytes()) / double(kNodes);
  out.digest.add(report.aggregate_goodput_bps);
  out.digest.add(report.max_interference_db);
  out.digest.add(std::uint64_t(report.epochs));
  out.digest.add(std::uint64_t(report.handoffs));
  out.digest.add(std::uint64_t(report.peak_population));
  for (const auto& cell : report.cells) {
    out.sim_events += cell.events_dispatched;
    out.digest.add(std::uint64_t(cell.events_dispatched));
    out.digest.add(std::uint64_t(cell.service_rounds));
    out.digest.add(cell.stable);
  }
  for (const auto& n : report.nodes) {
    out.digest.add(n.delivered_bits);
    out.digest.add(std::uint64_t(n.rounds_served));
    out.digest.add(std::uint64_t(n.final_cell));
    // Every node ends served, in a cell whose queues stayed bounded.
    out.attempted += 1;
    out.failed += report.cells[n.final_cell].stable && n.rounds_served > 0 ? 0 : 1;
  }
}

}  // namespace

void campus_100k(const Options& opt, Result& result) {
  result.op_name = "1 s campus run";
  LastRep last;
  // Set-up: a campus build (the first also interns the node ids). The build
  // inside each repetition is a second set-up sample.
  const auto setup = [] { build(); };
  const auto rep_fn = [&](std::uint64_t rep, RepOut& out) { run_rep(opt.seed, rep, out, last); };
  if (!opt.traced) {
    timed_phase(opt, 3, setup, rep_fn, result);
    return;
  }

  timed_setup(setup, result);
  traced_rep_phase(rep_fn, result);
  // The traced run's sampler (sampled_s) is one TrialRunner region of two
  // tasks: the benchmark's, not the program's.
  result.metrics["sim.regions.per_op"] -= 1.0;
  result.metrics["sim.tasks.per_op"] -= 2.0;
  const double threads = double(milback::sim::resolve_thread_count(0));
  const auto& per_op = result.metrics;  // One operation: totals per run.
  const double epochs = per_op.at("multicell.epochs.per_op");
  auto& rows = result.layers;
  // The build inside the traced pass gives the add_node cost.
  rows.push_back({"multicell.add_node", "setup", double(kNodes), last.add_node_ms});

  // Cell 0's population in its own frame: the inputs of its sweeps.
  const auto channel = prototype();
  const auto engine = build();
  std::vector<milback::channel::NodePose> poses;
  for (std::size_t i = 0; i < kNodes; i += kCells) {
    poses.push_back(engine.local_pose(0, home_pose(i)));
  }
  const milback::core::RateAdaptConfig rate{};
  const double budget = 0.03 * opt.seconds;

  // Each shard sweep is a one-worker TrialRunner region of one probe per
  // node; the epoch fan-out adds one region of kCells tasks per epoch.
  const double sweep_regions = per_op.at("sim.regions.per_op") - epochs;
  const double probes = per_op.at("sim.tasks.per_op") - epochs * double(kCells);
  rows.push_back({"cell.probe_service_rate", "op", probes,
                  time_per_call_ms(poses.size(), budget,
                                   [&](std::size_t k) {
                                     return milback::cell::probe_service_rate_bps(channel, poses[k],
                                                                                  rate);
                                   }),
                  threads});
  rows.push_back({"cell.sdm_partition", "op", per_op.at("cell.sweeps.per_op"),
                  time_per_call_ms(1, budget,
                                   [&](std::size_t) {
                                     return double(milback::cell::sdm_partition(
                                                       poses, milback::core::NetworkConfig{}
                                                                  .sdm_min_separation_deg)
                                                       .size());
                                   }),
                  threads});
  const milback::sim::TrialRunner serial(1);
  const auto tasks_per_region = std::size_t(std::llround(probes / std::max(sweep_regions, 1.0)));
  rows.push_back({"sim.for_each_region", "op", sweep_regions,
                  time_per_call_ms(1, budget,
                                   [&](std::size_t) {
                                     serial.for_each(tasks_per_region, [](std::size_t) {});
                                     return 0.0;
                                   }),
                  threads});
}

}  // namespace e2e
