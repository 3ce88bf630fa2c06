// SDM scheduler scale tripwire.
//
// `sdm_partition` runs on every service sweep of every cell. This test feeds
// it 100k bearings in the campus_100k layout pattern (node offsets from the
// home AP cycling over 37 x 41 grid steps) and checks the partition is
// exact. It is registered with a 10 s ctest TIMEOUT and runs in the CI
// scale-smoke job, so a quadratic scheduler fails it instead of slipping in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "milback/cell/sdm.hpp"
#include "milback/core/round_types.hpp"
#include "milback/util/units.hpp"

namespace milback::cell {
namespace {

TEST(SdmScale, HundredThousandCampusBearingsPartitionExactly) {
  constexpr std::size_t kNodes = 100000;
  std::vector<channel::NodePose> poses;
  poses.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    const double x = 0.5 + 0.05 * double(i % 37);
    const double y = 0.07 * double(i % 41) - 1.5;
    poses.push_back({std::hypot(x, y), rad2deg(std::atan2(y, x)),
                     -20.0 + 1.7 * double(i % 25)});
  }
  const double sep = core::NetworkConfig{}.sdm_min_separation_deg;
  const auto slots = sdm_partition(poses, sep);

  std::vector<int> hits(kNodes, 0);
  for (const auto& slot : slots) {
    ASSERT_FALSE(slot.empty());
    for (std::size_t k = 0; k < slot.size(); ++k) {
      ASSERT_LT(slot[k], kNodes);
      ++hits[slot[k]];
      if (k > 0) {
        EXPECT_LT(slot[k - 1], slot[k]);
      }
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_GE(std::abs(poses[slot[k]].azimuth_deg - poses[slot[j]].azimuth_deg), sep);
      }
    }
  }
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), std::ptrdiff_t(kNodes));
}

}  // namespace
}  // namespace milback::cell
