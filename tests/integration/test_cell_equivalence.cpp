// Cell engine against reference loops of the original multi-node service
// (tier-1).
//
// The SDM round and the MAC queueing loop used to be standalone
// implementations; both now run on cell::CellEngine. This suite keeps
// reference copies of the original loops as the spec the engine is compared
// against, and documents which guarantee applies where:
//
//   * CellEngine::run_uplink_round / run_downlink_round, sdm_slots and
//     inter_node_isolation_db are FIELD-EXACT: the per-node service
//     arithmetic lives in cell/sdm.cpp unchanged and the RNG consumption
//     order is preserved (one engine() draw per round, one (round_seed, k,
//     0|1) stream pair per service), so every field of every node result is
//     bit-identical. The SDM slotting is also checked slot for slot against
//     the greedy reference on randomized pose sets and edge cases.
//
//   * CellEngine::run is STATISTICALLY MATCHED against the reference MAC
//     loop at the same payload_symbols and rate thresholds: deterministic
//     quantities (SDM schedule, round period, round count, per-node service
//     rates, cell capacity, stability classification) are exact, but
//     arrival jitter draws from stateless per-event streams instead of the
//     caller's shared generator, so traffic-dependent quantities
//     (offered/delivered bits, latencies) agree in distribution, not
//     bit-for-bit.
//
//   * Every service sweep's rates and slots (SweepMemo) are FIELD-EXACT
//     against a from-scratch recompute at that sweep — the budget probe on
//     the engine's channel as it stands then, and the greedy reference
//     partition of the alive poses — through churn, blockage, handoff and
//     interference changes, whether the sweep recomputed or reused the last
//     sweep's rates and slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "milback/cell/cell_engine.hpp"
#include "milback/cell/multi_cell.hpp"
#include "milback/channel/link_budget.hpp"
#include "milback/core/ber.hpp"
#include "milback/core/packet.hpp"
#include "milback/obs/registry.hpp"
#include "milback/rf/envelope_detector.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback::core {
namespace {

channel::BackscatterChannel make_channel(std::uint64_t env_seed = 1) {
  Rng env(env_seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env));
}

// --- Reference: original network round loop (verbatim copy) ----------------

/// A registered node of the reference network.
struct NetworkNode {
  std::string id;            ///< Caller-chosen identifier.
  channel::NodePose pose{};  ///< Ground-truth pose (the simulation's truth).
};

/// The original greedy SDM partition: each node, in index order, joins the
/// first slot whose members all sit at least the separation away in bearing.
std::vector<std::vector<std::size_t>> greedy_sdm_slots(
    const std::vector<NetworkNode>& nodes, const NetworkConfig& config) {
  std::vector<std::vector<std::size_t>> slots;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    bool placed = false;
    for (auto& slot : slots) {
      const bool compatible =
          std::all_of(slot.begin(), slot.end(), [&](std::size_t j) {
            return std::abs(nodes[i].pose.azimuth_deg -
                            nodes[j].pose.azimuth_deg) >=
                   config.sdm_min_separation_deg;
          });
      if (compatible) {
        slot.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) slots.push_back({i});
  }
  return slots;
}

struct LegacyNetwork {
  NetworkConfig config;
  MilBackLink link;
  std::vector<NetworkNode> nodes;

  LegacyNetwork(channel::BackscatterChannel channel, NetworkConfig cfg)
      : config(cfg), link(std::move(channel), cfg.link) {}

  std::vector<std::vector<std::size_t>> sdm_slots() const {
    return greedy_sdm_slots(nodes, config);
  }

  double isolation_db(std::size_t i, std::size_t j) const {
    const double offset =
        std::abs(nodes[i].pose.azimuth_deg - nodes[j].pose.azimuth_deg);
    const auto& tx = link.channel().ap_tx_antenna();
    const auto& rx = link.channel().ap_rx_antenna();
    const double tx_rej = tx.config().boresight_gain_dbi - tx.gain_dbi(offset);
    const double rx_rej = rx.config().boresight_gain_dbi - rx.gain_dbi(offset);
    return tx_rej + rx_rej;
  }

  NodeRoundResult serve_uplink(std::size_t slot_idx, std::size_t i,
                               const std::vector<std::size_t>& slot_members,
                               std::size_t bits_per_node, Rng& data_rng,
                               Rng& noise_rng) const {
    NodeRoundResult nr;
    nr.id = nodes[i].id;
    nr.sdm_slot = slot_idx;
    const auto bits = data_rng.bits(bits_per_node);
    nr.uplink = link.run_uplink(nodes[i].pose, bits, noise_rng);
    double interference_w = 0.0;
    rf::RfSwitch sw(link.node().config().rf_switch);
    const double mod = channel::modulation_power_coeff(sw);
    for (const std::size_t j : slot_members) {
      if (j == i) continue;
      const double p_j = dbm2watt(link.channel().backscatter_power_dbm(
          antenna::FsaPort::kA, link.channel().fsa().config().center_frequency_hz,
          nodes[j].pose, mod));
      interference_w += p_j * db2lin(-isolation_db(i, j));
    }
    const double signal_w = dbm2watt(
        nr.uplink.carriers_ok
            ? link.channel().backscatter_power_dbm(
                  antenna::FsaPort::kA, nr.uplink.carriers.f_a_hz, nodes[i].pose, mod)
            : -300.0);
    const double noise_w = link.channel().effective_uplink_noise_w(
        signal_w, link.config().uplink_bit_rate_bps);
    nr.effective_snr_db =
        lin2db(std::max(signal_w, 1e-300) / (noise_w + interference_w));
    const double ber = ber_ook_noncoherent(db2lin(nr.effective_snr_db));
    nr.goodput_bps = (1.0 - ber) * link.config().uplink_bit_rate_bps;
    return nr;
  }

  RoundResult run_uplink_round(std::size_t bits_per_node, Rng& rng) const {
    RoundResult round;
    const auto slots = sdm_slots();
    round.sdm_slots = slots.size();
    std::vector<std::pair<std::size_t, std::size_t>> services;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      for (const auto i : slots[s]) services.emplace_back(s, i);
    }
    const std::uint64_t round_seed = rng.engine()();
    std::vector<NodeRoundResult> results(services.size());
    for (std::size_t k = 0; k < services.size(); ++k) {
      auto data_rng = Rng::stream(round_seed, k, std::uint64_t{0});
      auto noise_rng = Rng::stream(round_seed, k, std::uint64_t{1});
      results[k] = serve_uplink(services[k].first, services[k].second,
                                slots[services[k].first], bits_per_node,
                                data_rng, noise_rng);
    }
    const double slot_share = slots.empty() ? 1.0 : double(slots.size());
    for (auto& nr : results) {
      nr.goodput_bps /= slot_share;
      round.aggregate_goodput_bps += nr.goodput_bps;
      round.nodes.push_back(std::move(nr));
    }
    return round;
  }

  NodeDownlinkResult serve_downlink(std::size_t slot_idx, std::size_t i,
                                    const std::vector<std::size_t>& slot_members,
                                    std::size_t bits_per_node, Rng& data_rng,
                                    Rng& noise_rng) const {
    NodeDownlinkResult nr;
    nr.id = nodes[i].id;
    nr.sdm_slot = slot_idx;
    const auto bits = data_rng.bits(bits_per_node);
    nr.downlink = link.run_downlink(nodes[i].pose, bits, noise_rng);
    if (nr.downlink.carriers_ok) {
      const rf::EnvelopeDetector det{link.node().config().detector};
      const double p_sig_w = dbm2watt(link.channel().incident_port_power_dbm(
          antenna::FsaPort::kA, nr.downlink.carriers.f_a_hz, nodes[i].pose));
      double interference_w =
          p_sig_w * db2lin(link.channel().fsa().config().sidelobe_floor_db);
      const auto& tx = link.channel().ap_tx_antenna();
      for (const std::size_t j : slot_members) {
        if (j == i) continue;
        const double offset =
            std::abs(nodes[i].pose.azimuth_deg - nodes[j].pose.azimuth_deg);
        const double rejection_db =
            tx.config().boresight_gain_dbi - tx.gain_dbi(offset);
        interference_w += p_sig_w * db2lin(-rejection_db);
      }
      const double noise_eq_w = det.input_power_for_voltage(std::sqrt(
          det.noise_power_v2(link.config().downlink_measurement_bw_hz)));
      nr.effective_sinr_db = lin2db(p_sig_w / (noise_eq_w + interference_w));
      const double ber = ber_ook_noncoherent(db2lin(nr.effective_sinr_db));
      nr.goodput_bps = (1.0 - ber) * link.config().downlink_bit_rate_bps;
    }
    return nr;
  }

  DownlinkRoundResult run_downlink_round(std::size_t bits_per_node, Rng& rng) const {
    DownlinkRoundResult round;
    const auto slots = sdm_slots();
    round.sdm_slots = slots.size();
    std::vector<std::pair<std::size_t, std::size_t>> services;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      for (const auto i : slots[s]) services.emplace_back(s, i);
    }
    const std::uint64_t round_seed = rng.engine()();
    std::vector<NodeDownlinkResult> results(services.size());
    for (std::size_t k = 0; k < services.size(); ++k) {
      auto data_rng = Rng::stream(round_seed, k, std::uint64_t{0});
      auto noise_rng = Rng::stream(round_seed, k, std::uint64_t{1});
      results[k] = serve_downlink(services[k].first, services[k].second,
                                  slots[services[k].first], bits_per_node,
                                  data_rng, noise_rng);
    }
    const double slot_share = slots.empty() ? 1.0 : double(slots.size());
    for (auto& nr : results) {
      nr.goodput_bps /= slot_share;
      round.aggregate_goodput_bps += nr.goodput_bps;
      round.nodes.push_back(std::move(nr));
    }
    return round;
  }
};

// --- Reference: original MAC round loop (verbatim copy, 16/10 dB thresholds
// inlined; reports in the engine's CellReport shape) -------------------------

struct LegacyMac {
  struct Chunk {
    double bits;
    double arrival_s;
  };
  struct NodeState {
    std::string id;
    TrafficSpec spec;
    std::deque<Chunk> queue;
    double queued_bits = 0.0;
    double offered_bits = 0.0;
    double delivered_bits = 0.0;
    double peak_queue_bits = 0.0;
    std::vector<double> latencies_s;
    double rate_bps = 0.0;
  };

  cell::CellConfig config;
  channel::BackscatterChannel channel;
  std::vector<NodeState> nodes;

  LegacyMac(channel::BackscatterChannel chan, cell::CellConfig cfg)
      : config(cfg), channel(std::move(chan)) {}

  void add_node(std::string id, const TrafficSpec& spec) {
    NodeState n;
    n.id = std::move(id);
    n.spec = spec;
    nodes.push_back(std::move(n));
  }

  double service_rate_bps(const channel::NodePose& pose) const {
    const auto pair = channel.fsa().carrier_pair_for_angle(pose.orientation_deg);
    if (!pair) return 0.0;
    rf::RfSwitch sw{rf::RfSwitchConfig{}};
    const auto budget = channel::compute_uplink_budget(
        channel, pose, antenna::FsaPort::kA, pair->first, sw, 10e6);
    if (budget.snr_db >= 16.0) return 40e6;
    if (budget.snr_db >= 10.0) return 10e6;
    return 0.0;
  }

  cell::CellReport run(double duration_s, Rng& rng) {
    cell::CellReport report;
    report.duration_s = duration_s;
    std::vector<std::vector<std::size_t>> slots;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      bool placed = false;
      for (auto& slot : slots) {
        const bool ok = std::all_of(slot.begin(), slot.end(), [&](std::size_t j) {
          return std::abs(nodes[i].spec.pose.azimuth_deg -
                          nodes[j].spec.pose.azimuth_deg) >=
                 config.network.sdm_min_separation_deg;
        });
        if (ok) {
          slot.push_back(i);
          placed = true;
          break;
        }
      }
      if (!placed) slots.push_back({i});
    }
    double round_period_s = 0.0;
    double capacity_bps = 0.0;
    for (auto& n : nodes) n.rate_bps = service_rate_bps(n.spec.pose);
    std::vector<double> slot_time(slots.size(), 0.0);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      for (const auto i : slots[s]) {
        if (nodes[i].rate_bps <= 0.0) continue;
        const auto timing = compute_timing(
            PacketConfig{.preamble = {}, .payload_symbols = config.payload_symbols},
            LinkDirection::kUplink, nodes[i].rate_bps / 2.0);
        slot_time[s] = std::max(slot_time[s], timing.total_s);
      }
      round_period_s += slot_time[s];
    }
    if (round_period_s <= 0.0) {
      report.stable = true;
      return report;
    }
    const double payload_bits = double(config.payload_symbols) * 2.0;
    for (const auto& n : nodes) {
      if (n.rate_bps > 0.0) capacity_bps += payload_bits / round_period_s;
    }
    report.cell_capacity_bps = capacity_bps;
    double now = 0.0;
    while (now < duration_s) {
      for (auto& n : nodes) {
        const double mean_bits = n.spec.arrival_rate_bps * round_period_s;
        const double jitter =
            n.spec.burstiness > 0.0
                ? std::max(0.0, 1.0 + n.spec.burstiness * rng.gaussian(0.0, 0.5))
                : 1.0;
        const double bits = mean_bits * jitter;
        if (bits > 0.0) {
          n.queue.push_back({bits, now});
          n.queued_bits += bits;
          n.offered_bits += bits;
          n.peak_queue_bits = std::max(n.peak_queue_bits, n.queued_bits);
        }
      }
      for (const auto& slot : slots) {
        for (const auto i : slot) {
          auto& n = nodes[i];
          if (n.rate_bps <= 0.0) continue;
          double budget = payload_bits;
          const double service_done_s = now + round_period_s;
          while (budget > 0.0 && !n.queue.empty()) {
            auto& chunk = n.queue.front();
            const double take = std::min(chunk.bits, budget);
            chunk.bits -= take;
            budget -= take;
            n.queued_bits -= take;
            n.delivered_bits += take;
            if (chunk.bits <= 1e-9) {
              n.latencies_s.push_back(service_done_s - chunk.arrival_s);
              n.queue.pop_front();
            }
          }
        }
      }
      now += round_period_s;
      report.service_rounds += 1;
    }
    for (auto& n : nodes) {
      cell::CellNodeReport r;
      r.id = cell::IdTable::global().intern(n.id);
      r.offered_bits = n.offered_bits;
      r.delivered_bits = n.delivered_bits;
      r.mean_latency_s = mean(n.latencies_s);
      r.p95_latency_s = percentile(n.latencies_s, 95.0);
      r.peak_queue_bits = n.peak_queue_bits;
      r.final_queue_bits = n.queued_bits;
      r.service_rate_bps = n.rate_bps;
      if (n.rate_bps > 0.0 &&
          n.queued_bits >
              4.0 * n.spec.arrival_rate_bps * round_period_s + 2.0 * payload_bits) {
        report.stable = false;
      }
      report.aggregate_goodput_bps += n.delivered_bits / duration_s;
      report.nodes.push_back(std::move(r));
    }
    return report;
  }
};

// --- Field-exact: engine rounds vs the reference round loop -----------------

/// The four-node fleet both round tests serve ("c" shares a slot with "b").
const std::vector<std::pair<std::string, channel::NodePose>> kRoundFleet = {
    {"a", {2.0, -25.0, 12.0}},
    {"b", {2.5, 0.0, -12.0}},
    {"c", {3.0, 5.0, 8.0}},
    {"d", {3.5, 30.0, -4.0}},
};

/// Registers `fleet` on both the engine and the reference network.
void add_fleet(cell::CellEngine& engine, LegacyNetwork& legacy,
               const std::vector<std::pair<std::string, channel::NodePose>>& fleet) {
  for (const auto& [id, pose] : fleet) {
    engine.add_node(id, TrafficSpec{.pose = pose});
    legacy.nodes.push_back(NetworkNode{id, pose});
  }
}

TEST(CellEquivalence, UplinkRoundIsFieldExact) {
  cell::CellEngine engine(make_channel());
  LegacyNetwork legacy(make_channel(), NetworkConfig{});
  add_fleet(engine, legacy, kRoundFleet);

  Rng r1(99), r2(99);
  const auto got = engine.run_uplink_round(200, r1);
  const auto want = legacy.run_uplink_round(200, r2);

  EXPECT_EQ(got.sdm_slots, want.sdm_slots);
  EXPECT_DOUBLE_EQ(got.aggregate_goodput_bps, want.aggregate_goodput_bps);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    SCOPED_TRACE(got.nodes[i].id);
    EXPECT_EQ(got.nodes[i].id, want.nodes[i].id);
    EXPECT_EQ(got.nodes[i].sdm_slot, want.nodes[i].sdm_slot);
    EXPECT_DOUBLE_EQ(got.nodes[i].effective_snr_db, want.nodes[i].effective_snr_db);
    EXPECT_DOUBLE_EQ(got.nodes[i].goodput_bps, want.nodes[i].goodput_bps);
    EXPECT_EQ(got.nodes[i].uplink.carriers_ok, want.nodes[i].uplink.carriers_ok);
    EXPECT_EQ(got.nodes[i].uplink.bits_sent, want.nodes[i].uplink.bits_sent);
    EXPECT_EQ(got.nodes[i].uplink.bit_errors, want.nodes[i].uplink.bit_errors);
    EXPECT_DOUBLE_EQ(got.nodes[i].uplink.ber, want.nodes[i].uplink.ber);
    EXPECT_DOUBLE_EQ(got.nodes[i].uplink.snr_db, want.nodes[i].uplink.snr_db);
    EXPECT_DOUBLE_EQ(got.nodes[i].uplink.measured_snr_db,
                     want.nodes[i].uplink.measured_snr_db);
  }
  // Both consumed exactly one draw from the caller's generator.
  EXPECT_EQ(r1.engine()(), r2.engine()());
}

TEST(CellEquivalence, DownlinkRoundIsFieldExact) {
  cell::CellEngine engine(make_channel());
  LegacyNetwork legacy(make_channel(), NetworkConfig{});
  add_fleet(engine, legacy, kRoundFleet);

  Rng r1(123), r2(123);
  const auto got = engine.run_downlink_round(200, r1);
  const auto want = legacy.run_downlink_round(200, r2);

  EXPECT_EQ(got.sdm_slots, want.sdm_slots);
  EXPECT_DOUBLE_EQ(got.aggregate_goodput_bps, want.aggregate_goodput_bps);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    SCOPED_TRACE(got.nodes[i].id);
    EXPECT_EQ(got.nodes[i].id, want.nodes[i].id);
    EXPECT_EQ(got.nodes[i].sdm_slot, want.nodes[i].sdm_slot);
    EXPECT_DOUBLE_EQ(got.nodes[i].effective_sinr_db, want.nodes[i].effective_sinr_db);
    EXPECT_DOUBLE_EQ(got.nodes[i].goodput_bps, want.nodes[i].goodput_bps);
    EXPECT_EQ(got.nodes[i].downlink.carriers_ok, want.nodes[i].downlink.carriers_ok);
    EXPECT_EQ(got.nodes[i].downlink.bits_sent, want.nodes[i].downlink.bits_sent);
    EXPECT_EQ(got.nodes[i].downlink.bit_errors, want.nodes[i].downlink.bit_errors);
    EXPECT_DOUBLE_EQ(got.nodes[i].downlink.ber, want.nodes[i].downlink.ber);
    EXPECT_DOUBLE_EQ(got.nodes[i].downlink.sinr_db, want.nodes[i].downlink.sinr_db);
  }
  EXPECT_EQ(r1.engine()(), r2.engine()());
}

TEST(CellEquivalence, SdmScheduleAndIsolationAreFieldExact) {
  cell::CellEngine engine(make_channel());
  LegacyNetwork legacy(make_channel(), NetworkConfig{});
  add_fleet(engine, legacy,
            {{"a", {2.0, -25.0, 12.0}}, {"b", {2.5, 0.0, -12.0}},
             {"c", {3.0, 5.0, 8.0}},    {"d", {3.5, 30.0, -4.0}},
             {"e", {4.0, -22.0, 6.0}}});
  EXPECT_EQ(engine.sdm_slots(), legacy.sdm_slots());
  for (std::size_t i = 0; i < legacy.nodes.size(); ++i) {
    for (std::size_t j = 0; j < legacy.nodes.size(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(engine.inter_node_isolation_db(i, j),
                       legacy.isolation_db(i, j));
    }
  }

  // Property: cell::sdm_partition reproduces the greedy reference slot for
  // slot on any bearing set and separation.
  const auto expect_same_slots = [&](const std::vector<double>& bearings,
                                     double sep_deg) {
    std::vector<channel::NodePose> poses;
    legacy.nodes.clear();
    legacy.config.sdm_min_separation_deg = sep_deg;
    for (const double b : bearings) {
      poses.push_back({2.0, b, 0.0});
      legacy.nodes.push_back(NetworkNode{"", poses.back()});
    }
    EXPECT_EQ(cell::sdm_partition(poses, sep_deg), legacy.sdm_slots())
        << bearings.size() << " bearings, sep " << sep_deg << " deg";
  };

  // Seeded random pose sets, n <= 400: continuous bearings, and a coarse
  // 10-degree grid so bearings repeat and pairwise offsets hit the
  // separation exactly. Separation 0, a multiple of the grid step, or
  // continuous in (0, 60].
  constexpr std::uint64_t kPropertySeed = 0x5d3;
  for (std::uint64_t t = 0; t < 1200; ++t) {
    auto rng = Rng::stream(kPropertySeed, t);
    const auto n = std::size_t(rng.uniform_int(1, 400));
    const bool grid = t % 2 == 1;
    std::vector<double> bearings(n);
    for (auto& b : bearings) {
      b = grid ? 10.0 * double(rng.uniform_int(-18, 18))
               : rng.uniform(-180.0, 180.0);
    }
    const double sep_deg = t % 5 == 0   ? 0.0
                           : t % 5 == 1 ? 10.0 * double(rng.uniform_int(1, 6))
                                        : 60.0 - rng.uniform(0.0, 60.0);
    expect_same_slots(bearings, sep_deg);
  }

  // Edge cases.
  expect_same_slots({}, 20.0);                               // empty
  expect_same_slots(std::vector<double>(50, 12.5), 20.0);    // n slots
  expect_same_slots(std::vector<double>(50, 12.5), 0.0);     // one slot
  expect_same_slots({0.0, -0.0, 0.0, -0.0, 20.0, -20.0}, 20.0);
  expect_same_slots({0.0, -0.0, 0.0, -0.0}, 0.0);
  expect_same_slots({-180.0, 180.0, -180.0, 180.0, 0.0, 179.0, -179.0}, 20.0);
  expect_same_slots({-180.0, 180.0, -180.0, 180.0}, 60.0);
  // A NaN bearing blocks, and is blocked by, everyone: it opens its own slot
  // and no later node joins it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_same_slots({nan}, 20.0);
  expect_same_slots({nan, nan, nan}, 0.0);
  expect_same_slots({10.0, nan, 40.0, nan, 70.0, 10.0}, 20.0);
  expect_same_slots({nan, 0.0, -0.0, nan, 0.0, 20.0, -0.0, -20.0}, 20.0);
  expect_same_slots({-0.0, nan, 0.0, nan, -0.0}, 0.0);
  // Infinite bearings: |inf - inf| is NaN, so equal infinities block each
  // other at any separation; opposite ones and finite ones never do.
  expect_same_slots({inf, inf, -inf, -inf, 0.0, inf}, 20.0);
  expect_same_slots({inf, -inf, inf, -inf}, 0.0);
  expect_same_slots({-inf, 179.0, inf, -180.0, 180.0, inf, -inf}, 60.0);
  expect_same_slots({inf, nan, -inf, 0.0, -0.0, nan, inf, 5.0}, 10.0);
  expect_same_slots({inf, 1.0, -inf, 2.0, 3.0, inf}, 1e308);
}

// --- Statistically matched: engine run vs the reference MAC loop ------------

TEST(CellEquivalence, MacDeterministicQuantitiesAreExact) {
  const cell::CellConfig config;
  cell::CellEngine engine(make_channel(), config);
  LegacyMac legacy(make_channel(), config);
  const auto add = [&](const std::string& id, const TrafficSpec& spec) {
    engine.add_node(id, spec);
    legacy.add_node(id, spec);
  };
  add("near", {.pose = {2.0, -25.0, 12.0}, .arrival_rate_bps = 200e3});
  add("mid", {.pose = {3.0, 0.0, 8.0}, .arrival_rate_bps = 150e3});
  add("shared", {.pose = {3.5, 5.0, -6.0}, .arrival_rate_bps = 150e3});
  add("far", {.pose = {9.0, 30.0, 15.0}, .arrival_rate_bps = 100e3});
  add("ghost", {.pose = {18.0, -30.0, 12.0}, .arrival_rate_bps = 50e3});

  Rng r1(4242), r2(4242);
  const auto got = engine.run(0.5, r1.engine()());
  const auto want = legacy.run(0.5, r2);

  // Exact: schedule-derived quantities (no randomness involved).
  EXPECT_EQ(got.service_rounds, want.service_rounds);
  EXPECT_DOUBLE_EQ(got.cell_capacity_bps, want.cell_capacity_bps);
  EXPECT_EQ(got.stable, want.stable);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].id, want.nodes[i].id);
    EXPECT_DOUBLE_EQ(got.nodes[i].service_rate_bps, want.nodes[i].service_rate_bps);
  }
  // Per-pose scheduling decisions are the same function.
  for (const auto& n : legacy.nodes) {
    EXPECT_DOUBLE_EQ(engine.service_rate_bps(n.spec.pose),
                     legacy.service_rate_bps(n.spec.pose));
  }
}

TEST(CellEquivalence, MacTrafficQuantitiesAreStatisticallyMatched) {
  // Arrival jitter draws from stateless per-event streams rather than the
  // caller's shared generator, so traffic totals agree in distribution
  // only. With ~300 rounds the relative standard error of the mean jitter is
  // ~3%, so a 10% tolerance is a > 3-sigma bound.
  const cell::CellConfig config;
  cell::CellEngine engine(make_channel(), config);
  LegacyMac legacy(make_channel(), config);
  const TrafficSpec spec{.pose = {2.0, 0.0, 12.0}, .arrival_rate_bps = 400e3};
  engine.add_node("a", spec);
  legacy.add_node("a", spec);

  Rng r1(7), r2(7);
  const auto got = engine.run(0.5, r1.engine()());
  const auto want = legacy.run(0.5, r2);

  ASSERT_EQ(got.nodes.size(), 1u);
  EXPECT_NEAR(got.nodes[0].offered_bits, want.nodes[0].offered_bits,
              0.10 * want.nodes[0].offered_bits);
  EXPECT_NEAR(got.nodes[0].delivered_bits, want.nodes[0].delivered_bits,
              0.10 * want.nodes[0].delivered_bits);
  EXPECT_NEAR(got.nodes[0].mean_latency_s, want.nodes[0].mean_latency_s,
              0.15 * want.nodes[0].mean_latency_s);
  EXPECT_NEAR(got.aggregate_goodput_bps, want.aggregate_goodput_bps,
              0.10 * want.aggregate_goodput_bps);
}

// --- Sweep memo: every sweep against a from-scratch recompute ---------------

/// Observes one cell's sweeps and checks each against a recompute: every
/// alive node's rate against probe_service_rate_bps on the engine's channel
/// at that sweep (the observer runs inside the sweep, so the channel still
/// holds the sweep's path time and losses), and the slots against the greedy
/// reference partition of the alive poses. With `count_probes`, it also
/// records each sweep's TrialRunner tasks (the per-node probe or session
/// fan-out; the engine must pin sweep_threads = 1 so they run, and count,
/// on the observing thread).
class SweepCheck {
 public:
  SweepCheck(const cell::CellEngine& engine, bool check_rates, bool count_probes)
      : engine_(engine), check_rates_(check_rates), count_probes_(count_probes) {}

  void observe(const cell::ServiceObservation& o) {
    if (!alive_.empty() && o.round != round_) close_sweep();
    if (alive_.empty() && count_probes_) {
      const std::uint64_t tasks = obs::Registry::global().counter_value("sim.tasks");
      tasks_.push_back(tasks - last_tasks_);
      last_tasks_ = tasks;
    }
    round_ = o.round;
    const channel::NodePose& pose = engine_.node_pose(o.node);
    if (check_rates_) {
      EXPECT_EQ(o.rate_bps, cell::probe_service_rate_bps(engine_.link().channel(),
                                                         pose, engine_.config().rate))
          << "sweep " << o.round << ", node " << o.node;
    }
    alive_.push_back(NetworkNode{"", pose});
    slot_of_.push_back(o.slot);
  }

  /// Checks the last sweep; returns the number of sweeps checked.
  std::size_t finish() {
    if (!alive_.empty()) close_sweep();
    return population_.size();
  }

  /// Per sweep: TrialRunner tasks since the previous sweep (count_probes).
  const std::vector<std::uint64_t>& tasks() const { return tasks_; }
  /// Per sweep: nodes alive.
  const std::vector<std::size_t>& population() const { return population_; }

 private:
  void close_sweep() {
    std::vector<std::vector<std::size_t>> got;
    for (std::size_t k = 0; k < slot_of_.size(); ++k) {
      if (slot_of_[k] >= got.size()) got.resize(slot_of_[k] + 1);
      got[slot_of_[k]].push_back(k);
    }
    EXPECT_EQ(got, greedy_sdm_slots(alive_, engine_.config().network))
        << "sweep " << round_;
    population_.push_back(alive_.size());
    alive_.clear();
    slot_of_.clear();
  }

  const cell::CellEngine& engine_;
  bool check_rates_;
  bool count_probes_;
  std::size_t round_ = 0;
  std::vector<NetworkNode> alive_;    ///< This sweep's alive poses so far.
  std::vector<std::size_t> slot_of_;  ///< Their slots.
  std::vector<std::size_t> population_;
  std::vector<std::uint64_t> tasks_;
  std::uint64_t last_tasks_ = 0;
};

/// Metrics on for one test (the probe count reads sim.tasks), zeroed on
/// entry and exit.
class ScopedMetrics {
 public:
  ScopedMetrics() {
    obs::Registry::global().reset();
    obs::set_enabled(true, false);
  }
  ~ScopedMetrics() {
    obs::Registry::global().reset();
    obs::set_enabled(false, false);
  }
};

/// 24 nodes in front of a walled office, so a blockage episode leaves
/// reflected paths: joins, leaves and moves (range and bearing) fall between
/// and on sweeps, and a blockage episode spans several.
cell::CellEngine build_churn_cell(cell::CellConfig cfg,
                                  channel::MultipathConfig scene) {
  cell::CellEngine engine(make_channel(), cfg);
  engine.set_multipath(std::move(scene));
  for (std::size_t i = 0; i < 24; ++i) {
    const channel::NodePose pose{1.5 + 0.45 * double(i % 13), -45.0 + 3.7 * double(i),
                                 -15.0 + 1.3 * double(i % 17)};
    const double join_s = i % 6 == 1 ? 0.02 * double(1 + i % 4) : 0.0;
    engine.add_node("memo-" + std::to_string(i),
                    TrafficSpec{.pose = pose,
                                .arrival_rate_bps = 40e3 + 10e3 * double(i % 3),
                                .burstiness = i % 2 == 0 ? 0.5 : 0.0},
                    join_s);
    if (i % 7 == 3) engine.schedule_leave(i, 0.05 + 0.013 * double(i % 5));
    if (i % 4 == 2) {
      engine.schedule_move(i, 0.03 + 0.011 * double(i % 5),
                           {pose.distance_m + 2.5, pose.azimuth_deg + 4.0,
                            pose.orientation_deg - 6.0});
    }
  }
  engine.schedule_blockage(0.06, 0.1, 10.0);
  return engine;
}

TEST(SweepMemo, StandaloneSweepsMatchARecompute) {
  const ScopedMetrics metrics;
  // Derived period (begin() probes; churn falls between sweeps) and a
  // pinned one.
  for (const double period_s : {0.0, 0.004}) {
    SCOPED_TRACE(period_s);
    cell::CellConfig cfg;
    cfg.service_period_s = period_s;
    cfg.sweep_threads = 1;
    auto engine = build_churn_cell(cfg, channel::MultipathConfig::office_walls(21, 5));
    SweepCheck check(engine, /*check_rates=*/true, /*count_probes=*/true);
    engine.set_observer([&](const cell::ServiceObservation& o) { check.observe(o); });
    const auto report = engine.run(0.15, 11);
    const std::size_t sweeps = check.finish();
    ASSERT_EQ(sweeps, report.service_rounds);
    EXPECT_GT(sweeps, 20u);
    EXPECT_LT(report.final_population, report.peak_population);
    // Most sweeps reuse; the ones after a change re-probe every alive node.
    std::size_t reused = 0;
    for (std::size_t s = 0; s < sweeps; ++s) {
      if (check.tasks()[s] == 0) {
        ++reused;
      } else if (s > 0) {
        EXPECT_EQ(check.tasks()[s], check.population()[s]) << "sweep " << s;
      }
    }
    EXPECT_GT(reused, sweeps / 2);
    EXPECT_LT(reused, sweeps);
  }
}

TEST(SweepMemo, TwoCellHandoffAndInterferenceMatchARecompute) {
  // Co-channel cells 20 m apart. The roamer crosses from cell 0 to cell 1
  // in the epoch where a late node joins cell 0, so cell 0's population,
  // and with it cell 1's interference, is unchanged at that barrier: cell 1
  // changes only by the attach. Later, six cell-0 nodes leave at once, so
  // cell 1 changes only by its interference.
  cell::MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {20.0, 0.0}};
  cfg.coverage_radius_m = 9.0;
  cfg.epoch_s = 0.01;
  cfg.interference_node_db = -10.0;
  Rng env(5);
  cell::MultiCellEngine engine(
      channel::BackscatterChannel::make_default(channel::Environment::indoor_office(env)),
      std::move(cfg));
  engine.set_multipath(channel::MultipathConfig::office_walls(21, 5));
  for (std::size_t i = 0; i < 32; ++i) {
    const double ax = i % 2 == 0 ? 0.0 : 20.0;
    engine.add_node("memo-mc-" + std::to_string(i),
                    {ax + (i % 2 == 0 ? 1.0 : -1.0) * (1.2 + 0.3 * double(i % 11)),
                     -3.0 + 0.37 * double(i % 17), -12.0 + 1.5 * double(i % 13)},
                    30e3);
  }
  const std::size_t roamer = engine.add_node("memo-mc-roamer", {2.0, 0.5, 4.0}, 30e3);
  engine.schedule_waypoint(roamer, 0.043, {17.5, 0.8, 4.0});
  engine.add_node("memo-mc-late", {2.5, -1.0, 6.0}, {30e3, 1.0}, 0.045);
  for (std::size_t i = 0; i < 12; i += 2) engine.schedule_leave(i, 0.085);

  std::vector<SweepCheck> checks;
  checks.reserve(engine.cell_count());
  for (std::size_t c = 0; c < engine.cell_count(); ++c) {
    checks.emplace_back(engine.cell(c), /*check_rates=*/true, /*count_probes=*/false);
    engine.set_observer(c, [&checks, c](const cell::ServiceObservation& o) {
      checks[c].observe(o);
    });
  }
  const auto report = engine.run(0.15, 23);
  ASSERT_EQ(report.handoffs, 1u);
  EXPECT_GT(report.max_interference_db, 0.0);
  for (std::size_t c = 0; c < engine.cell_count(); ++c) {
    EXPECT_EQ(checks[c].finish(), report.cells[c].service_rounds) << "cell " << c;
  }
}

TEST(SweepMemo, BlockerScenesAndSessionCellsProbeEverySweep) {
  const ScopedMetrics metrics;
  // A blocker moves the path set with the clock, and a session steps every
  // sweep: neither may reuse, so every sweep runs one task per alive node.
  channel::MultipathConfig scene = channel::MultipathConfig::office_walls(21, 5);
  scene.blockers.push_back({.x_m = 3.0, .y_m = -6.0, .vx_mps = 0.0, .vy_mps = 60.0,
                            .radius_m = 0.5, .penetration_loss_db = 30.0});
  cell::CellConfig cfg;
  cfg.sweep_threads = 1;
  cell::CellConfig session_cfg = cfg;
  session_cfg.sessions.emplace();
  session_cfg.service_period_s = 0.004;
  struct Case {
    const char* name;
    cell::CellConfig cfg;
    channel::MultipathConfig scene;
  };
  for (const Case& c : {Case{"blocker", cfg, scene},
                        Case{"session", session_cfg, channel::MultipathConfig{}}}) {
    SCOPED_TRACE(c.name);
    auto engine = build_churn_cell(c.cfg, c.scene);
    SweepCheck check(engine, /*check_rates=*/!c.cfg.sessions, /*count_probes=*/true);
    engine.set_observer([&](const cell::ServiceObservation& o) { check.observe(o); });
    engine.run(0.15, 11);
    const std::size_t sweeps = check.finish();
    EXPECT_GT(sweeps, 20u);
    // begin()'s probe lands in the first sweep's count (derived period).
    for (std::size_t s = 1; s < sweeps; ++s) {
      EXPECT_EQ(check.tasks()[s], check.population()[s]) << "sweep " << s;
    }
  }
}

}  // namespace
}  // namespace milback::core
