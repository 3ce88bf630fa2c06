// Multi-node network / SDM tests: static populations on the cell engine.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "milback/cell/cell_engine.hpp"

namespace milback::cell {
namespace {

CellEngine make_network(std::uint64_t seed = 1) {
  Rng rng(seed);
  return CellEngine(channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng)));
}

/// Registers a static node at `pose` (default traffic; rounds ignore it).
std::size_t add(CellEngine& net, const std::string& id,
                const channel::NodePose& pose) {
  return net.add_node(id, core::TrafficSpec{.pose = pose});
}

TEST(Network, AddAndEnumerate) {
  auto net = make_network();
  EXPECT_EQ(add(net, "a", {2.0, -25.0, 10.0}), 0u);
  EXPECT_EQ(add(net, "b", {3.0, 0.0, -12.0}), 1u);
  ASSERT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.node_id(0).view(), "a");
}

TEST(Network, DiscoverLocalizesAll) {
  auto net = make_network();
  add(net, "a", {2.0, -20.0, 10.0});
  add(net, "b", {4.0, 15.0, -15.0});
  // Discovery: localize, then orientation-sense, each node in index order.
  Rng rng(2);
  std::vector<ap::LocalizationResult> loc;
  std::vector<ap::ApOrientationResult> orient;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    loc.push_back(net.link().localize(net.node_pose(i), rng));
    orient.push_back(net.link().sense_orientation_at_ap(net.node_pose(i), rng));
  }
  ASSERT_TRUE(loc[0].detected);
  ASSERT_TRUE(loc[1].detected);
  EXPECT_NEAR(loc[0].range_m, 2.0, 0.2);
  EXPECT_NEAR(loc[1].range_m, 4.0, 0.25);
  EXPECT_TRUE(orient[0].valid);
  EXPECT_NEAR(orient[0].orientation_deg, 10.0, 3.0);
}

TEST(Network, SdmSlotsSeparateCloseNodes) {
  auto net = make_network();
  add(net, "a", {2.0, 0.0, 10.0});
  add(net, "b", {3.0, 5.0, 10.0});   // too close to a
  add(net, "c", {4.0, 30.0, 10.0});  // separable from a
  const auto slots = net.sdm_slots();
  ASSERT_EQ(slots.size(), 2u);
  // a and c share a slot; b is alone.
  EXPECT_EQ(slots[0].size(), 2u);
  EXPECT_EQ(slots[1].size(), 1u);
}

TEST(Network, SdmAllSeparableInOneSlot) {
  auto net = make_network();
  add(net, "a", {2.0, -30.0, 10.0});
  add(net, "b", {2.0, 0.0, 10.0});
  add(net, "c", {2.0, 30.0, 10.0});
  EXPECT_EQ(net.sdm_slots().size(), 1u);
}

TEST(Network, InterNodeIsolationGrowsWithSeparation) {
  auto net = make_network();
  add(net, "a", {2.0, 0.0, 10.0});
  add(net, "b", {2.0, 10.0, 10.0});
  add(net, "c", {2.0, 45.0, 10.0});
  EXPECT_GT(net.inter_node_isolation_db(0, 2), net.inter_node_isolation_db(0, 1));
  EXPECT_GT(net.inter_node_isolation_db(0, 2), 30.0);
  EXPECT_NEAR(net.inter_node_isolation_db(0, 0), 0.0, 1e-9);
}

TEST(Network, UplinkRoundServesEveryNode) {
  auto net = make_network();
  add(net, "a", {2.0, -25.0, 12.0});
  add(net, "b", {2.5, 0.0, -12.0});
  add(net, "c", {3.0, 25.0, 12.0});
  Rng rng(3);
  const auto round = net.run_uplink_round(400, rng);
  EXPECT_EQ(round.nodes.size(), 3u);
  EXPECT_GE(round.sdm_slots, 1u);
  EXPECT_GT(round.aggregate_goodput_bps, 0.0);
  for (const auto& n : round.nodes) {
    EXPECT_TRUE(n.uplink.carriers_ok) << n.id;
    EXPECT_EQ(n.uplink.bit_errors, 0u) << n.id;
    EXPECT_GT(n.goodput_bps, 0.0) << n.id;
  }
}

TEST(Network, ConcurrentNodesSeeInterferencePenalty) {
  // Two nodes just past the SDM threshold share a slot; their effective SNR
  // must be below the single-node budget SNR.
  auto net = make_network();
  add(net, "a", {2.0, -11.0, 12.0});
  add(net, "b", {2.0, 11.0, 12.0});
  ASSERT_EQ(net.sdm_slots().size(), 1u);
  Rng rng(4);
  const auto round = net.run_uplink_round(200, rng);
  ASSERT_EQ(round.nodes.size(), 2u);
  for (const auto& n : round.nodes) {
    EXPECT_LT(n.effective_snr_db, n.uplink.snr_db) << n.id;
  }
}

TEST(Network, DownlinkRoundServesEveryNode) {
  auto net = make_network();
  add(net, "a", {2.0, -25.0, 12.0});
  add(net, "b", {2.5, 0.0, -12.0});
  add(net, "c", {3.0, 25.0, 12.0});
  Rng rng(6);
  const auto round = net.run_downlink_round(400, rng);
  EXPECT_EQ(round.nodes.size(), 3u);
  EXPECT_GT(round.aggregate_goodput_bps, 0.0);
  for (const auto& n : round.nodes) {
    EXPECT_TRUE(n.downlink.carriers_ok) << n.id;
    EXPECT_EQ(n.downlink.bit_errors, 0u) << n.id;
    EXPECT_GT(n.goodput_bps, 0.0) << n.id;
    EXPECT_GT(n.effective_sinr_db, 5.0) << n.id;
  }
}

TEST(Network, DownlinkInterferencePenaltyForSharedSlot) {
  // Same node, same metric: effective SINR alone in the sector vs sharing
  // an SDM slot with a neighbour 22 degrees away.
  auto solo = make_network();
  add(solo, "a", {2.0, -11.0, 12.0});
  auto shared = make_network();
  add(shared, "a", {2.0, -11.0, 12.0});
  add(shared, "b", {2.0, 11.0, 12.0});
  ASSERT_EQ(shared.sdm_slots().size(), 1u);
  Rng r1(7), r2(7);
  const auto solo_round = solo.run_downlink_round(200, r1);
  const auto shared_round = shared.run_downlink_round(200, r2);
  ASSERT_EQ(solo_round.nodes.size(), 1u);
  ASSERT_GE(shared_round.nodes.size(), 2u);
  // Node "a" pays a concurrent-beam penalty of several dB.
  EXPECT_LT(shared_round.nodes[0].effective_sinr_db,
            solo_round.nodes[0].effective_sinr_db - 3.0);
}

TEST(Network, DownlinkAggregateScalesWithSeparableNodes) {
  auto one = make_network();
  add(one, "a", {2.0, 0.0, 12.0});
  auto two = make_network();
  add(two, "a", {2.0, -25.0, 12.0});
  add(two, "b", {2.0, 25.0, 12.0});
  Rng r1(8), r2(9);
  const auto round1 = one.run_downlink_round(200, r1);
  const auto round2 = two.run_downlink_round(200, r2);
  ASSERT_EQ(round2.sdm_slots, 1u);  // separable -> concurrent
  EXPECT_GT(round2.aggregate_goodput_bps, 1.5 * round1.aggregate_goodput_bps);
}

TEST(Network, SdmSlotsPartitionRespectsMinSeparation) {
  // A deliberately awkward bearing set: clusters, duplicates and spread-out
  // nodes. The greedy partition must keep every within-slot pair separated
  // by at least sdm_min_separation_deg.
  auto net = make_network();
  const std::vector<double> bearings{-30.0, -28.0, -10.0, -9.0, 0.0, 0.0,
                                     5.0,   12.0,  19.0,  31.0, 33.0};
  for (std::size_t i = 0; i < bearings.size(); ++i) {
    add(net, "n" + std::to_string(i), {2.0 + 0.1 * double(i), bearings[i], 10.0});
  }
  const auto slots = net.sdm_slots();
  const double min_sep = net.config().network.sdm_min_separation_deg;
  for (const auto& slot : slots) {
    for (std::size_t a = 0; a < slot.size(); ++a) {
      for (std::size_t b = a + 1; b < slot.size(); ++b) {
        const double sep = std::abs(net.node_pose(slot[a]).azimuth_deg -
                                    net.node_pose(slot[b]).azimuth_deg);
        EXPECT_GE(sep, min_sep)
            << "nodes " << slot[a] << " and " << slot[b] << " share a slot";
      }
    }
  }
}

TEST(Network, SdmSlotsCoverEveryNodeExactlyOnce) {
  auto net = make_network();
  for (int i = 0; i < 9; ++i) {
    add(net, "n" + std::to_string(i), {2.0, -40.0 + 10.0 * double(i), 10.0});
  }
  std::vector<int> appearances(net.node_count(), 0);
  for (const auto& slot : net.sdm_slots()) {
    for (const std::size_t i : slot) {
      ASSERT_LT(i, appearances.size());
      ++appearances[i];
    }
  }
  for (std::size_t i = 0; i < appearances.size(); ++i) {
    EXPECT_EQ(appearances[i], 1) << "node " << i;
  }
}

TEST(Network, InterNodeIsolationIsSymmetric) {
  auto net = make_network();
  add(net, "a", {2.0, -20.0, 10.0});
  add(net, "b", {3.0, 5.0, -5.0});
  add(net, "c", {4.5, 33.0, 18.0});
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    for (std::size_t j = 0; j < net.node_count(); ++j) {
      EXPECT_DOUBLE_EQ(net.inter_node_isolation_db(i, j),
                       net.inter_node_isolation_db(j, i))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(Network, MoreSlotsLowerPerNodeGoodput) {
  auto crowded = make_network();
  add(crowded, "a", {2.0, 0.0, 12.0});
  add(crowded, "b", {2.0, 4.0, 12.0});  // forces a second slot
  Rng rng(5);
  const auto round = crowded.run_uplink_round(200, rng);
  EXPECT_EQ(round.sdm_slots, 2u);
  for (const auto& n : round.nodes) {
    EXPECT_LE(n.goodput_bps, crowded.link().config().uplink_bit_rate_bps / 2.0 + 1.0);
  }
}

}  // namespace
}  // namespace milback::cell
