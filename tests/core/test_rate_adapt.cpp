// Shared rate-adaptation policy tests — including the regression pinning
// the single source of truth for the Fig 15 thresholds.
#include <gtest/gtest.h>

#include "milback/cell/cell_engine.hpp"
#include "milback/core/rate_adapt.hpp"
#include "milback/core/session.hpp"

namespace milback::core {
namespace {

TEST(RateAdapt, ServiceRateThresholds) {
  const RateAdaptConfig cfg;
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, 25.0), 40e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_40mbps_db), 40e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_40mbps_db - 0.1), 10e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_10mbps_db), 10e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_10mbps_db - 0.1), 0.0);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, -20.0), 0.0);
}

TEST(RateAdapt, AdaptRateAddsFecInThinMargin) {
  const RateAdaptConfig cfg;
  // Comfortable 40 Mbps margin: raw.
  const auto fast = adapt_rate(cfg, cfg.snr_for_40mbps_db + cfg.fec_margin_db + 1.0);
  EXPECT_DOUBLE_EQ(fast.rate_bps, 40e6);
  EXPECT_FALSE(fast.fec);
  // Just over the 40 Mbps threshold: FEC switched in.
  const auto thin = adapt_rate(cfg, cfg.snr_for_40mbps_db + 0.5);
  EXPECT_DOUBLE_EQ(thin.rate_bps, 40e6);
  EXPECT_TRUE(thin.fec);
  // Mid 10 Mbps band, comfortable margin: raw 10 Mbps.
  const auto mid = adapt_rate(cfg, cfg.snr_for_10mbps_db + cfg.fec_margin_db + 1.0);
  EXPECT_DOUBLE_EQ(mid.rate_bps, 10e6);
  EXPECT_FALSE(mid.fec);
}

TEST(RateAdapt, AdaptRateNeverGivesUp) {
  // Below the 10 Mbps threshold the session keeps trying at 10 Mbps + FEC
  // (unlike the scheduler, which skips the node) — see rate_adapt.hpp.
  const RateAdaptConfig cfg;
  const auto weak = adapt_rate(cfg, cfg.snr_for_10mbps_db - 5.0);
  EXPECT_DOUBLE_EQ(weak.rate_bps, 10e6);
  EXPECT_TRUE(weak.fec);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_10mbps_db - 5.0), 0.0);
}

TEST(RateAdapt, SingleSourceOfTruthAcrossLayers) {
  // Regression for the threshold drift this config fixed: SessionConfig used
  // to carry 12 dB for 10 Mbps while the MAC scheduler carried 10 dB. Every
  // layer now embeds RateAdaptConfig, so the defaults must be byte-for-byte
  // the same object everywhere.
  const RateAdaptConfig truth;
  EXPECT_DOUBLE_EQ(truth.snr_for_10mbps_db, 10.0);
  EXPECT_DOUBLE_EQ(truth.snr_for_40mbps_db, 16.0);
  EXPECT_DOUBLE_EQ(truth.fec_margin_db, 3.0);

  const SessionConfig session;
  const cell::CellConfig engine;
  for (const auto& layer : {session.rate, engine.rate}) {
    EXPECT_DOUBLE_EQ(layer.snr_for_10mbps_db, truth.snr_for_10mbps_db);
    EXPECT_DOUBLE_EQ(layer.snr_for_40mbps_db, truth.snr_for_40mbps_db);
    EXPECT_DOUBLE_EQ(layer.fec_margin_db, truth.fec_margin_db);
  }
}

TEST(RateAdapt, RecalibrationPropagatesThroughMac) {
  // Tightening the shared threshold must change the cell scheduler's
  // decision — proof it consults the shared config, not a private copy.
  Rng env(1);
  auto channel = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env));
  const channel::NodePose pose{9.0, 0.0, 15.0};  // ~10.9 dB budget SNR

  const cell::CellEngine loose(channel, cell::CellConfig{});
  EXPECT_DOUBLE_EQ(loose.service_rate_bps(pose), 10e6);

  cell::CellConfig strict_cfg;
  strict_cfg.rate.snr_for_10mbps_db = 12.0;  // the old SessionConfig value
  const cell::CellEngine strict(channel, strict_cfg);
  EXPECT_DOUBLE_EQ(strict.service_rate_bps(pose), 0.0);
}

}  // namespace
}  // namespace milback::core
