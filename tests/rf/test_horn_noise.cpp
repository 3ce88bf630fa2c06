// Horn antenna and receiver noise floor tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/rf/horn_antenna.hpp"
#include "milback/rf/noise.hpp"
#include "milback/util/units.hpp"

namespace milback::rf {
namespace {

TEST(HornAntenna, RejectsBadBeamwidth) {
  HornAntennaConfig cfg;
  cfg.beamwidth_deg = 0.0;
  EXPECT_THROW(HornAntenna{cfg}, std::invalid_argument);
}

TEST(HornAntenna, BoresightGain) {
  HornAntenna horn{HornAntennaConfig{}};
  EXPECT_NEAR(horn.gain_dbi(0.0), 20.0, 1e-9);
}

TEST(HornAntenna, HalfBeamwidthIs3dBDown) {
  HornAntenna horn{HornAntennaConfig{}};
  EXPECT_NEAR(horn.gain_dbi(horn.config().beamwidth_deg / 2.0), 17.0, 1e-9);
  EXPECT_NEAR(horn.gain_dbi(-horn.config().beamwidth_deg / 2.0), 17.0, 1e-9);
}

TEST(HornAntenna, SidelobeFloorFarOut) {
  HornAntenna horn{HornAntennaConfig{}};
  EXPECT_DOUBLE_EQ(horn.gain_dbi(90.0), horn.config().sidelobe_floor_dbi);
}

TEST(HornAntenna, MonotoneDecreasingOffsets) {
  HornAntenna horn{HornAntennaConfig{}};
  double prev = 1e9;
  for (double off = 0.0; off <= 60.0; off += 2.0) {
    const double g = horn.gain_dbi(off);
    EXPECT_LE(g, prev + 1e-12);
    prev = g;
  }
}

TEST(HornAntenna, LinearMatchesDb) {
  HornAntenna horn{HornAntennaConfig{}};
  EXPECT_NEAR(lin2db(horn.gain_linear(5.0)), horn.gain_dbi(5.0), 1e-9);
}

TEST(Noise, FloorWithNoiseFigure) {
  // kTB(1 MHz) = -114 dBm; NF 5 dB -> -109 dBm.
  EXPECT_NEAR(noise_floor_dbm(1e6, 5.0), -109.0, 0.1);
  EXPECT_NEAR(noise_floor_w(1e6, 0.0), thermal_noise_power(1e6), 1e-25);
}

}  // namespace
}  // namespace milback::rf
