// NLoS end-to-end suite: the PathSet propagation layer's promises.
//
//  1. Degeneracy — an explicitly installed empty MultipathConfig changes
//     nothing: localizer fixes and whole CellReports match a channel that
//     never had one, bit for bit.
//  2. One path per layer — in a scene with walls and blockers, the
//     waveform layers see the same best surviving path the budgets see
//     (a blocker on the direct ray lowers both by the same amount).
//  3. Recovery — with a corridor reflector surveyed, the reflector-aware
//     localizer keeps ranging through direct-path blockage that makes the
//     plain localizer lose the node entirely (the paper's motivating
//     N2LoS scenario).
//  4. Invariance — NLoS churn (walls + a blockage episode severing
//     individual paths over sim time) stays bit-identical across worker
//     thread counts, like every other engine scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "milback/ap/downlink_transmitter.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/cell/cell_engine.hpp"
#include "milback/channel/backscatter_channel.hpp"
#include "milback/channel/link_budget.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/util/units.hpp"

#include "invariance_support.hpp"

namespace milback::cell {
namespace {

using antenna::FsaPort;
using channel::BackscatterChannel;
using channel::MultipathConfig;
using channel::NodePose;

/// The corridor scenario: node 3 m out on the boresight, a reflecting wall
/// running alongside the AP-node line (grazing specular bounce at ~31 deg).
MultipathConfig corridor_walls() {
  MultipathConfig mp;
  mp.walls.push_back({0.5, 0.9, 3.5, 0.9, 10.0});
  return mp;
}

// --- 1. Degeneracy: an empty scene changes nothing ---------------------------

TEST(NlosDegeneracy, LosOnlyConfigLocalizesBitIdentically) {
  Rng env_rng(5);
  const auto env = channel::Environment::indoor_office(env_rng);
  const auto legacy = BackscatterChannel::make_default(env);
  auto pathset = BackscatterChannel::make_default(env);
  pathset.set_multipath(MultipathConfig{});  // explicit LoS-only scene

  ap::LocalizerConfig cfg;
  cfg.reflector_aware = true;  // must be inert while the scene is LoS-only
  const ap::Localizer loc(cfg);
  for (int trial = 0; trial < 10; ++trial) {
    const NodePose pose{2.0 + 0.3 * trial, -20.0 + 4.0 * trial, 5.0};
    Rng a = Rng::stream(11, trial);
    Rng b = Rng::stream(11, trial);
    const auto ra = loc.localize(legacy, pose, a);
    const auto rb = loc.localize(pathset, pose, b);
    ASSERT_EQ(ra.detected, rb.detected);
    EXPECT_EQ(ra.range_m, rb.range_m);  // exact, not approximate
    EXPECT_EQ(ra.angle_deg, rb.angle_deg);
    EXPECT_EQ(ra.detection_snr_db, rb.detection_snr_db);
    EXPECT_EQ(ra.steered_azimuth_deg, rb.steered_azimuth_deg);
    EXPECT_EQ(ra.aoa_offset_deg.has_value(), rb.aoa_offset_deg.has_value());
    if (ra.aoa_offset_deg) {
      EXPECT_EQ(*ra.aoa_offset_deg, *rb.aoa_offset_deg);
    }
    EXPECT_FALSE(rb.nlos_fallback);
    EXPECT_EQ(rb.reflector_wall, -1);
  }
}

TEST(NlosDegeneracy, CellReportUnchangedByEmptyMultipathConfig) {
  const auto build = [](bool install_empty_scene) {
    Rng env_rng(5);
    CellEngine engine(BackscatterChannel::make_default(
                          channel::Environment::indoor_office(env_rng)),
                      CellConfig{});
    if (install_empty_scene) engine.set_multipath(MultipathConfig{});
    for (std::size_t i = 0; i < 12; ++i) {
      engine.add_node("n-" + std::to_string(i),
                      {.pose = {1.8 + 0.15 * double(i), -30.0 + 5.0 * double(i),
                                -10.0 + 2.0 * double(i)},
                       .arrival_rate_bps = 30e3},
                      (i % 4 == 3) ? 0.03 : 0.0);
    }
    engine.schedule_blockage(0.06, 0.10, 16.0);
    return engine.run(0.15, 99);
  };
  const CellReport legacy = build(false);
  const CellReport pathset = build(true);
  EXPECT_GT(legacy.service_rounds, 3u);
  expect_reports_identical(legacy, pathset);
}

// --- 2. One path per layer ----------------------------------------------------

TEST(NlosOnePath, DirectRayBlockerLowersWaveformAndBudgetAlike) {
  // The corridor wall plus a body parked on the direct ray: the downlink
  // tone the transmitter synthesizes at port A must drop by exactly what the
  // downlink budget's signal term drops.
  const NodePose pose{3.0, 0.0, 15.0};
  auto clear = BackscatterChannel::make_default(channel::Environment::anechoic());
  clear.set_multipath(corridor_walls());
  auto blocked = clear;
  MultipathConfig scene = corridor_walls();
  scene.blockers.push_back({1.5, 0.0, 0.0, 0.0, 0.3, 30.0});
  blocked.set_multipath(scene);
  ASSERT_TRUE(blocked.node_path_set(pose).direct().severed());

  const ap::DownlinkTransmitter tx;
  const auto sel = ap::select_carriers(clear.fsa(), pose.orientation_deg,
                                       tx.config().min_tone_separation_hz);
  ASSERT_TRUE(sel.has_value());
  const std::vector<core::OaqfmSymbol> tone_a_only{core::OaqfmSymbol::k10};
  const double tone_drop_db = lin2db(tx.synthesize(clear, pose, *sel, tone_a_only).power_a_w[0] /
                                   tx.synthesize(blocked, pose, *sel, tone_a_only).power_a_w[0]);

  const rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  const rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const auto budget = [&](const BackscatterChannel& chan) {
    return channel::compute_downlink_budget(chan, pose, FsaPort::kA, sel->f_a_hz,
                                            sel->f_b_hz, det, sw, 1e9);
  };
  const double budget_drop_db = budget(clear).signal_dbm - budget(blocked).signal_dbm;
  EXPECT_GT(budget_drop_db, 3.0);
  EXPECT_NEAR(tone_drop_db, budget_drop_db, 1e-9);
}

// --- 3. Reflector-aware recovery under direct-path blockage -----------------

TEST(NlosRecovery, ReflectorAwareModeRangesThroughBlockage) {
  auto chan = BackscatterChannel::make_default(channel::Environment::anechoic());
  chan.set_multipath(corridor_walls());
  chan.config().blockage_loss_db = 25.0;  // ~50%+ direct-path power gone twice over
  const NodePose pose{3.0, 0.0, 0.0};

  ap::LocalizerConfig aware_cfg;
  aware_cfg.reflector_aware = true;
  const ap::Localizer aware(aware_cfg);
  const ap::Localizer plain;

  int aware_fixes = 0, nlos_fixes = 0, plain_fixes = 0;
  double err_sum = 0.0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng a = Rng::stream(9, trial);
    Rng b = Rng::stream(9, trial);
    const auto fix = aware.localize(chan, pose, a);
    const auto base = plain.localize(chan, pose, b);
    plain_fixes += base.detected ? 1 : 0;
    if (fix.detected) {
      ++aware_fixes;
      nlos_fixes += fix.nlos_fallback ? 1 : 0;
      const double x = fix.range_m * std::cos(deg2rad(fix.angle_deg));
      const double y = fix.range_m * std::sin(deg2rad(fix.angle_deg));
      err_sum += std::hypot(x - 3.0, y);
      EXPECT_EQ(fix.reflector_wall, fix.nlos_fallback ? 0 : -1);
    }
  }
  // The LoS-only localizer loses the node entirely; the reflector-aware mode
  // recovers every fix via the wall echo with sub-decimeter error.
  EXPECT_EQ(plain_fixes, 0);
  EXPECT_EQ(aware_fixes, kTrials);
  EXPECT_EQ(nlos_fixes, kTrials);
  EXPECT_LT(err_sum / kTrials, 0.3);
}

TEST(NlosRecovery, FallbackStaysQuietWhenDirectPathIsHealthy) {
  auto chan = BackscatterChannel::make_default(channel::Environment::anechoic());
  chan.set_multipath(corridor_walls());  // wall surveyed, but no blockage
  const NodePose pose{3.0, 0.0, 0.0};
  ap::LocalizerConfig cfg;
  cfg.reflector_aware = true;
  const ap::Localizer loc(cfg);
  for (int trial = 0; trial < 10; ++trial) {
    Rng rng = Rng::stream(9, trial);
    const auto fix = loc.localize(chan, pose, rng);
    ASSERT_TRUE(fix.detected);
    EXPECT_FALSE(fix.nlos_fallback);
    EXPECT_NEAR(fix.range_m, 3.0, 0.3);
  }
}

// --- 4. Thread invariance under NLoS churn ----------------------------------

CellEngine make_nlos_engine() {
  Rng env_rng(5);
  CellEngine engine(BackscatterChannel::make_default(
                        channel::Environment::indoor_office(env_rng)),
                    CellConfig{});
  engine.set_multipath(MultipathConfig::office_walls(21, 5));
  for (std::size_t i = 0; i < 30; ++i) {
    const core::TrafficSpec spec{
        .pose = {1.5 + 0.12 * double(i % 17), -55.0 + 3.6 * double(i),
                 -20.0 + 2.0 * double(i % 21)},
        .arrival_rate_bps = 20e3 + 3e3 * double(i % 7),
        .burstiness = (i % 3 == 0) ? 0.0 : 1.0,
    };
    const double join = (i % 3 == 2) ? 0.02 + 0.001 * double(i) : 0.0;
    engine.add_node("tag-" + std::to_string(i), spec, join);
    if (i % 5 == 4) engine.schedule_leave(i, 0.10 + 0.002 * double(i));
    if (i % 4 == 1) {
      engine.schedule_move(i, 0.05 + 0.002 * double(i),
                           {2.5 + 0.12 * double(i % 17), -52.0 + 3.6 * double(i),
                            -20.0 + 2.0 * double(i % 21)});
    }
  }
  engine.schedule_blockage(0.08, 0.12, 18.0);
  return engine;
}

TEST(NlosThreadInvariance, WallSceneChurnIsBitIdentical) {
  CellReport serial, parallel;
  {
    ScopedThreads guard("1");
    auto engine = make_nlos_engine();
    serial = engine.run(0.2, 4321);
  }
  {
    ScopedThreads guard("4");
    auto engine = make_nlos_engine();
    parallel = engine.run(0.2, 4321);
  }
  EXPECT_GT(serial.service_rounds, 5u);
  EXPECT_EQ(serial.peak_population, 30u);
  expect_reports_identical(serial, parallel);
}

// --- CI smoke (scale-smoke job runs 'ScaleSmoke|NlosSmoke') -----------------

TEST(NlosSmoke, BlockedCorridorCellStaysServiceable) {
  // A small cell whose channel carries the corridor scene and a mid-run
  // blockage episode: the smoke gates that the PathSet plumbing survives the
  // full engine round-trip (joins, blockage severing, service) quickly.
  Rng env_rng(5);
  CellEngine engine(BackscatterChannel::make_default(
                        channel::Environment::indoor_office(env_rng)),
                    CellConfig{});
  engine.set_multipath(corridor_walls());
  for (std::size_t i = 0; i < 8; ++i) {
    engine.add_node("s-" + std::to_string(i),
                    {.pose = {2.0 + 0.2 * double(i), -15.0 + 4.0 * double(i), 5.0},
                     .arrival_rate_bps = 40e3});
  }
  engine.schedule_blockage(0.04, 0.08, 25.0);
  const CellReport report = engine.run(0.12, 7);
  EXPECT_GT(report.service_rounds, 2u);
  EXPECT_EQ(report.final_population, 8u);
  double delivered = 0.0;
  for (const auto& n : report.nodes) delivered += n.delivered_bits;
  EXPECT_GT(delivered, 0.0);
}

}  // namespace
}  // namespace milback::cell
