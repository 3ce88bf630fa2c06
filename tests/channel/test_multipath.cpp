// Multipath ghost-return tests.
//
// Narrow beams are mmWave's multipath armor: a ghost needs BOTH the AP horn
// and the node's FSA beam to illuminate the bounce reflector, which confines
// surviving ghosts to reflectors near the line of sight. These tests pin the
// geometry dependence and that the localizer is not fooled.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/ap/localizer.hpp"
#include "milback/channel/backscatter_channel.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {
namespace {

// The FSA-aligned frequency for broadside (orientation 0) nodes.
double aligned_f(const BackscatterChannel& chan, double orientation) {
  return chan.fsa().beam_frequency_hz(antenna::FsaPort::kA, orientation).value_or(28e9);
}

// With no walls, `modulated_returns` is the direct return (entry 0)
// followed by the clutter ghosts.
std::vector<ReturnPath> returns(const BackscatterChannel& chan, double f,
                                const NodePose& pose) {
  return chan.modulated_returns(antenna::FsaPort::kA, f, pose, 1.0);
}

TEST(MultipathGhosts, EmptyEnvironmentNoGhosts) {
  const auto chan = BackscatterChannel::make_default(Environment::anechoic());
  EXPECT_EQ(returns(chan, 28.5e9, {3.0, 0.0, 10.0}).size(), 1u);
}

TEST(MultipathGhosts, NearLosReflectorProducesGhost) {
  // Reflector close to the AP-node line: both beams still illuminate it.
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const auto r = returns(chan, aligned_f(chan, 0.0), {3.0, 0.0, 0.0});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r[1].modulated);
  EXPECT_GT(r[1].delay_s, r[0].delay_s);
  EXPECT_LT(r[1].power_w, r[0].power_w);
}

TEST(MultipathGhosts, OffBeamReflectorSuppressed) {
  // The same reflector moved 35 degrees off the line of sight: the horn
  // and FSA patterns bury the bounce below the -40 dB floor.
  Environment env;
  env.add({1.5, 35.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  EXPECT_EQ(returns(chan, aligned_f(chan, 0.0), {3.0, 0.0, 0.0}).size(), 1u);
}

TEST(MultipathGhosts, WeakFarReflectorDropped) {
  Environment env;
  env.add({9.0, -38.0, 0.05});
  const auto chan = BackscatterChannel::make_default(env);
  EXPECT_EQ(returns(chan, 28.5e9, {2.0, 0.0, 10.0}).size(), 1u);
}

TEST(MultipathGhosts, DelayMatchesGeometry) {
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const auto r = returns(chan, aligned_f(chan, 0.0), {3.0, 0.0, 0.0});
  ASSERT_EQ(r.size(), 2u);
  const double wx = 1.5 * std::cos(deg2rad(4.0));
  const double wy = 1.5 * std::sin(deg2rad(4.0));
  const double d_wn = std::hypot(3.0 - wx, 0.0 - wy);
  const double expected = (3.0 + 1.5 + d_wn) / kSpeedOfLight;
  EXPECT_NEAR(r[1].delay_s, expected, 1e-12);
}

TEST(MultipathGhosts, GhostDelaySmearIsSmallForNearLosBounce) {
  // Near-LoS bounces add little path length, so the ghost lands within a
  // couple of range bins of the direct return (range-bias, not a phantom
  // second target) — the structural reason narrow-beam FMCW localization
  // stays clean indoors.
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const auto r = returns(chan, aligned_f(chan, 0.0), {3.0, 0.0, 0.0});
  ASSERT_EQ(r.size(), 2u);
  const double extra_m = (r[1].delay_s - r[0].delay_s) * kSpeedOfLight / 2.0;
  EXPECT_LT(extra_m, 0.25);  // within ~5 range bins
}

TEST(MultipathGhosts, LocalizerStillPicksDirectPath) {
  Environment env;
  env.add({1.5, 4.0, 0.2});
  env.add({2.5, -22.0, 0.6});
  const auto chan = BackscatterChannel::make_default(env);
  ap::Localizer loc;
  Rng rng(3);
  const NodePose pose{3.0, 0.0, 0.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 3.0, 0.25);
}

// --- PathSet / image-method ray layer ---------------------------------------
//
// The deterministic first-order specular tracer behind every non-LoS channel
// query. The geometry cases are pinned against hand computation: a node at
// (3, 0) with a wall along y = 2 has its image at (3, 4), so the bounce path
// is the straight AP->image ray of length hypot(3, 4) = 5 m with specular
// point (1.5, 2) and AP bearing atan2(2, 1.5) = 53.13 deg.

TEST(MultipathPathSet, LosOnlyConfigIsSingleDirectPath) {
  const MultipathConfig mp;
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 1u);
  EXPECT_EQ(set.paths[0].bounces, 0);
  EXPECT_EQ(set.paths[0].wall, -1);
  EXPECT_DOUBLE_EQ(set.paths[0].length_m, 3.0);
  EXPECT_DOUBLE_EQ(set.paths[0].blocker_loss_db, 0.0);
  EXPECT_FALSE(set.paths[0].severed());
  EXPECT_EQ(set.active_count(), 1u);
  EXPECT_EQ(set.severed_count(), 0u);
}

TEST(MultipathPathSet, ImageMethodMatchesHandComputation) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  EXPECT_EQ(set.direct().bounces, 0);
  const PropPath& bounce = set.paths[1];
  EXPECT_EQ(bounce.bounces, 1);
  EXPECT_EQ(bounce.wall, 0);
  EXPECT_NEAR(bounce.length_m, 5.0, 1e-12);
  EXPECT_NEAR(bounce.hit_x_m, 1.5, 1e-12);
  EXPECT_NEAR(bounce.hit_y_m, 2.0, 1e-12);
  EXPECT_NEAR(bounce.aoa_deg, rad2deg(std::atan2(2.0, 1.5)), 1e-9);
  // Node-side departure points at the specular point: (-1.5, 2) from (3, 0).
  EXPECT_NEAR(bounce.aod_deg, rad2deg(std::atan2(2.0, -1.5)), 1e-9);
  EXPECT_DOUBLE_EQ(bounce.bounce_loss_db, 9.0);
}

TEST(MultipathPathSet, SpecularPointOffSegmentContributesNoPath) {
  // Same wall line, but the physical segment sits at x in [10, 12]: the
  // specular point (1.5, 2) misses it, so only the direct ray survives.
  MultipathConfig mp;
  mp.walls.push_back({10.0, 2.0, 12.0, 2.0, 9.0});
  EXPECT_EQ(trace_paths(mp, 3.0, 0.0, 0.0).paths.size(), 1u);
}

TEST(MultipathPathSet, NodeAcrossWallLineHasNoImage) {
  // Specular reflection needs AP and node on the same side of the wall line.
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 6.0, 2.0, 9.0});
  EXPECT_EQ(trace_paths(mp, 3.0, 5.0, 0.0).paths.size(), 1u);
}

TEST(MultipathPathSet, BlockerSeversDirectButNotBouncePath) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  mp.blockers.push_back({1.5, 0.0, 0.0, 0.0, 0.3, 30.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  EXPECT_DOUBLE_EQ(set.direct().blocker_loss_db, 30.0);
  EXPECT_TRUE(set.direct().severed());
  EXPECT_DOUBLE_EQ(set.paths[1].blocker_loss_db, 0.0);
  EXPECT_EQ(set.active_count(), 1u);
  EXPECT_EQ(set.severed_count(), 1u);
}

TEST(MultipathPathSet, MovingBlockerSeversOverSimTime) {
  // A blocker walking up the y axis crosses the AP-node ray at t = 5 s.
  MultipathConfig mp;
  mp.blockers.push_back({1.5, -5.0, 0.0, 1.0, 0.3, 30.0});
  EXPECT_FALSE(trace_paths(mp, 3.0, 0.0, 0.0).direct().severed());
  EXPECT_TRUE(trace_paths(mp, 3.0, 0.0, 5.0).direct().severed());
  EXPECT_FALSE(trace_paths(mp, 3.0, 0.0, 10.0).direct().severed());
}

TEST(MultipathPathSet, TraceIsDeterministic) {
  const MultipathConfig mp = MultipathConfig::office_walls(7, 6);
  const PathSet a = trace_paths(mp, 3.2, 1.1, 0.25);
  const PathSet b = trace_paths(mp, 3.2, 1.1, 0.25);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].length_m, b.paths[i].length_m);
    EXPECT_EQ(a.paths[i].aoa_deg, b.paths[i].aoa_deg);
    EXPECT_EQ(a.paths[i].aod_deg, b.paths[i].aod_deg);
    EXPECT_EQ(a.paths[i].bounce_loss_db, b.paths[i].bounce_loss_db);
    EXPECT_EQ(a.paths[i].blocker_loss_db, b.paths[i].blocker_loss_db);
    EXPECT_EQ(a.paths[i].wall, b.paths[i].wall);
  }
}

TEST(MultipathPathSet, OfficeWallsAreSeedKeyedPerWall) {
  // Wall k derives from Rng::stream(seed, tag, k): requesting more walls
  // must not change the earlier ones, and a different seed must.
  const auto small = MultipathConfig::office_walls(7, 2);
  const auto large = MultipathConfig::office_walls(7, 6);
  ASSERT_EQ(small.walls.size(), 2u);
  ASSERT_EQ(large.walls.size(), 6u);
  for (std::size_t k = 0; k < small.walls.size(); ++k) {
    EXPECT_EQ(small.walls[k].x1_m, large.walls[k].x1_m);
    EXPECT_EQ(small.walls[k].y1_m, large.walls[k].y1_m);
    EXPECT_EQ(small.walls[k].x2_m, large.walls[k].x2_m);
    EXPECT_EQ(small.walls[k].y2_m, large.walls[k].y2_m);
    EXPECT_EQ(small.walls[k].reflection_loss_db, large.walls[k].reflection_loss_db);
  }
  const auto other = MultipathConfig::office_walls(8, 2);
  EXPECT_NE(small.walls[0].x1_m, other.walls[0].x1_m);
}

TEST(MultipathPathSet, NlosUnfoldRoundTripsTracedBounce) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  const PropPath& bounce = set.paths[1];
  double nx = 0.0, ny = 0.0;
  ASSERT_TRUE(nlos_unfold(mp.walls[0], bounce.length_m, bounce.aoa_deg, &nx, &ny));
  EXPECT_NEAR(nx, 3.0, 1e-9);
  EXPECT_NEAR(ny, 0.0, 1e-9);
}

TEST(MultipathPathSet, NlosUnfoldRejectsMissAndShortPath) {
  const WallSegment wall{0.0, 2.0, 3.0, 2.0, 9.0};
  double nx = 0.0, ny = 0.0;
  // Bearing pointing away from the wall: the ray never hits the segment.
  EXPECT_FALSE(nlos_unfold(wall, 5.0, -45.0, &nx, &ny));
  // Path shorter than the AP-to-wall leg: no unfolded position exists.
  EXPECT_FALSE(nlos_unfold(wall, 1.0, 53.13, &nx, &ny));
}

TEST(MultipathPathSet, ContractsRejectBadInputs) {
  EXPECT_THROW(MultipathConfig::office_walls(1, 65), ContractViolation);
  const MultipathConfig mp;
  EXPECT_THROW(trace_paths(mp, std::nan(""), 0.0, 0.0), ContractViolation);
  const WallSegment wall{0.0, 2.0, 3.0, 2.0, 9.0};
  double nx = 0.0, ny = 0.0;
  EXPECT_THROW(nlos_unfold(wall, -1.0, 10.0, &nx, &ny), ContractViolation);
  EXPECT_THROW(nlos_unfold(wall, 5.0, 10.0, nullptr, &ny), ContractViolation);
}

}  // namespace
}  // namespace milback::channel
