// loc_nlos: reflector-aware localization through direct-path blockage.
//
// Operation: a blockage sweep of one node — five Localizer::localize fixes
// with the NLoS fallback on, one through each direct-path blockage of
// 0/10/20/25/30 dB, in the bench_ext_nlos grazing-wall scene (a 10 dB wall
// at y = 0.9 m, anechoic otherwise). The localizer runs one pipeline pass on
// the two clear levels and a second pass at the wall bearing on the three
// blocked ones, where the echo dominates. Levels near 15 dB, where the
// fallback switches on, are left out: there a fix can miss both paths.
// Single fixes form two latency populations (one pass and two passes) whose
// boundary lies near the median, which then jumps with host noise; a sweep
// holds both kinds in fixed proportion. It exercises the same localizer as
// link_office through the PathSet wall tracing instead of the clutter
// ghosts.
#include <array>
#include <cmath>
#include <vector>

#include "e2e.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/util/units.hpp"

namespace e2e {

namespace {

using milback::Rng;
using milback::channel::BackscatterChannel;
using milback::channel::NodePose;

constexpr std::size_t kSweepsPerRep = 100;
constexpr std::size_t kWarmupSweeps = 4;
constexpr std::array<double, 5> kBlockageDb{0.0, 10.0, 20.0, 25.0, 30.0};
// A fix this far off ranged a ghost or unfolded the wrong image; ordinary
// ranging noise stays under ~0.2 m here.
constexpr double kMaxRangeErrorM = 0.5;
constexpr std::uint64_t kWarmupRep = 0xffff;

struct Scene {
  std::vector<BackscatterChannel> channels;  ///< One per blockage level.
  milback::ap::Localizer localizer;
};

Scene make_scene() {
  milback::channel::MultipathConfig mp;
  mp.walls.push_back({0.5, 0.9, 3.5, 0.9, 10.0});
  Scene scene{{}, milback::ap::Localizer([] {
                milback::ap::LocalizerConfig cfg;
                cfg.reflector_aware = true;
                return cfg;
              }())};
  for (const double db : kBlockageDb) {
    milback::channel::ChannelConfig cfg;
    cfg.blockage_loss_db = db;
    auto chan = BackscatterChannel::make_default(milback::channel::Environment::anechoic(), cfg);
    chan.set_multipath(mp);
    scene.channels.push_back(std::move(chan));
  }
  return scene;
}

struct Fix {
  NodePose pose;
  Rng rng;
};

Fix make_fix(std::uint64_t seed, std::uint64_t rep, std::size_t i) {
  Rng rng = Rng::stream(seed, rep, i);
  // Below ~2.7 m the wall echo leaves the FSA beam and blocked fixes fail.
  const NodePose pose{rng.uniform(2.75, 3.5), 0.0, 0.0};
  return Fix{pose, rng};
}

const BackscatterChannel& channel_for(const Scene& scene, std::size_t i) {
  return scene.channels[i % scene.channels.size()];
}

// Runs sweep s of repetition `rep`: the node's fix through every blockage
// level, then checks each against the node's true position.
void run_sweep(const Scene& scene, std::uint64_t seed, std::uint64_t rep, std::size_t s,
               RepOut& out) {
  auto f = make_fix(seed, rep, s);
  std::array<milback::ap::LocalizationResult, kBlockageDb.size()> fixes;
  const double op_s = timed_s([&] {
    for (std::size_t level = 0; level < fixes.size(); ++level) {
      fixes[level] = scene.localizer.localize(channel_for(scene, level), f.pose, f.rng);
    }
  });
  out.op_ms.push_back(1e3 * op_s);
  out.work_s += op_s;

  for (const auto& fix : fixes) {
    const double x = fix.range_m * std::cos(milback::deg2rad(fix.angle_deg));
    const double y = fix.range_m * std::sin(milback::deg2rad(fix.angle_deg));
    const double err_m = std::hypot(x - f.pose.distance_m, y);
    out.attempted += 1;
    const double range_err_m = std::abs(fix.range_m - f.pose.distance_m);
    out.failed += fix.detected && range_err_m <= kMaxRangeErrorM ? 0 : 1;
    if (fix.detected) out.loc_err_cm.push_back(100.0 * err_m);
    out.digest.add(fix.detected);
    out.digest.add(fix.nlos_fallback);
    out.digest.add(fix.range_m);
    out.digest.add(fix.angle_deg);
  }
}

}  // namespace

void loc_nlos(const Options& opt, Result& result) {
  result.op_name = "5-fix blockage sweep";
  // Set-up: a fresh scene, warmed by a few sweeps.
  Scene scene = make_scene();
  const auto setup = [&] {
    scene = make_scene();
    RepOut warm;
    for (std::size_t s = 0; s < kWarmupSweeps; ++s) run_sweep(scene, opt.seed, kWarmupRep, s, warm);
  };
  const auto rep_fn = [&](std::uint64_t rep, RepOut& out) {
    for (std::size_t s = 0; s < kSweepsPerRep; ++s) run_sweep(scene, opt.seed, rep, s, out);
  };
  if (!opt.traced) {
    timed_phase(opt, 3, setup, rep_fn, result);
    return;
  }

  timed_setup(setup, result);
  traced_ops_phase(
      kSweepsPerRep, [&](std::size_t s, RepOut& out) { run_sweep(scene, opt.seed, 0, s, out); },
      result);
  const double ops = double(kSweepsPerRep);

  // Layer inputs: the first fixes of repetition 0, every blockage level in
  // turn; the pipeline stages are timed at the fully blocked level, where
  // both passes and the wall tracing run.
  std::vector<NodePose> poses;
  for (std::size_t i = 0; i < 4 * kBlockageDb.size(); ++i) {
    poses.push_back(make_fix(opt.seed, 0, i / kBlockageDb.size()).pose);
  }
  const auto& blocked = scene.channels.back();
  const double budget = 0.02 * opt.seconds;
  Rng rng(0x6c61796572ULL);
  result.layers.push_back({"ap.localize", "op", counter("ap.localize.calls") / ops,
                           time_per_call_ms(poses.size(), budget, [&](std::size_t k) {
                             return scene.localizer
                                 .localize(channel_for(scene, k), poses[k], rng)
                                 .range_m;
                           })});
  localizer_rows(blocked, scene.localizer, poses, ops, "ap.localize", budget, result);
}

}  // namespace e2e
