// Extension — continuous tracking of a moving node.
//
// The paper localizes static nodes; AR/VR (its motivating application) needs
// a track. This bench runs a walking node as a cell-engine scenario: the
// path is a queue of move events, each service sweep steps the node's
// adaptive session, and the observer compares the per-round raw fix
// (SessionStep::raw_range_m/raw_angle_deg) against the alpha-beta-smoothed
// track — including coasting through missed detections.
#include "bench_common.hpp"

#include <cmath>

#include "milback/cell/cell_engine.hpp"
#include "milback/util/units.hpp"

using namespace milback;

namespace {

constexpr double kDtS = 0.1;  // 10 localization packets per second

// Walking path: 0.8 m/s along a gentle arc, 1.5-5 m from the AP.
void walk_xy(std::size_t k, double& x, double& y) {
  const double ts = double(k) * kDtS;
  x = 1.5 + 0.4 * ts;
  y = 0.8 * std::sin(0.35 * ts);
}

channel::NodePose walk_pose(std::size_t k) {
  double x = 0.0, y = 0.0;
  walk_xy(k, x, y);
  return {std::hypot(x, y), rad2deg(std::atan2(y, x)), 10.0};
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Extension", "Tracking a walking node: raw fixes vs alpha-beta track",
                seed);

  constexpr std::size_t kSteps = 80;

  cell::CellConfig cfg;
  cfg.sessions.emplace();
  cfg.service_period_s = kDtS;
  cfg.sessions->tracker.dt_s = kDtS;
  Rng env_rng = Rng::stream(seed, std::uint64_t{1});
  cell::CellEngine engine(bench::make_indoor_channel(env_rng), cfg);

  const auto node =
      engine.add_node("walker", {.pose = walk_pose(0), .arrival_rate_bps = 1e6});
  for (std::size_t k = 1; k < kSteps; ++k) {
    engine.schedule_move(node, double(k) * kDtS, walk_pose(k));
  }

  std::vector<double> raw_errs, track_errs;
  std::size_t misses = 0;
  double last_speed_mps = 0.0;
  Table t({"t (s)", "truth (x,y)", "fix err (cm)", "track err (cm)", "speed est (m/s)"});
  CsvWriter csv(CsvWriter::env_dir(), "ext_tracking",
                {"t_s", "raw_err_cm", "track_err_cm"});

  engine.set_observer([&](const cell::ServiceObservation& obs) {
    const auto& step = obs.session;
    const std::size_t k = obs.round;
    const double ts = double(k) * kDtS;
    double x = 0.0, y = 0.0;
    walk_xy(k, x, y);

    if (!step.localized) {
      ++misses;
      return;
    }
    const double fx = step.raw_range_m * std::cos(deg2rad(step.raw_angle_deg));
    const double fy = step.raw_range_m * std::sin(deg2rad(step.raw_angle_deg));
    const double sx = step.range_m * std::cos(deg2rad(step.angle_deg));
    const double sy = step.range_m * std::sin(deg2rad(step.angle_deg));
    const double raw = std::hypot(fx - x, fy - y);
    const double smooth = std::hypot(sx - x, sy - y);
    last_speed_mps = step.speed_mps;
    if (k >= 10) {  // after warm-up (includes beam-scan acquisition)
      raw_errs.push_back(raw);
      track_errs.push_back(smooth);
    }
    if (k % 8 == 0) {
      t.add_row({Table::num(ts, 1),
                 Table::num(x, 2) + ", " + Table::num(y, 2), Table::num(raw * 100, 1),
                 Table::num(smooth * 100, 1), Table::num(step.speed_mps, 2)});
    }
    csv.row({ts, raw * 100, smooth * 100});
  });

  engine.run(double(kSteps) * kDtS, seed);
  t.print(std::cout);

  std::cout << "\nSummary over " << raw_errs.size() << " post-warm-up fixes ("
            << misses << " misses):\n"
            << "  raw fix error:   mean " << Table::num(mean(raw_errs) * 100, 1)
            << " cm, p90 " << Table::num(percentile(raw_errs, 90) * 100, 1) << " cm\n"
            << "  tracked error:   mean " << Table::num(mean(track_errs) * 100, 1)
            << " cm, p90 " << Table::num(percentile(track_errs, 90) * 100, 1)
            << " cm\n"
            << "  speed estimate:  " << Table::num(last_speed_mps, 2)
            << " m/s (truth ~0.8 m/s along-path)\n";
  std::cout << "\nReading: alpha-beta smoothing over per-packet fixes reduces both\n"
               "mean and tail position error on a moving node and adds a usable\n"
               "velocity estimate — at zero extra node-side energy (all AP-side).\n";
  return 0;
}
