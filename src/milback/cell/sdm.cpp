#include "milback/cell/sdm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "milback/channel/link_budget.hpp"
#include "milback/core/ber.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::cell {

std::vector<std::vector<std::size_t>> sdm_partition(
    std::span<const channel::NodePose> poses, double min_separation_deg) {
  const double sep = require_non_negative(min_separation_deg, "min_separation_deg");
  const std::size_t n = poses.size();
  // Node j blocks bearing v iff !(|v - a_j| >= sep). IEEE subtraction is
  // monotone in v, so over the sorted distinct bearings that set is one
  // contiguous key range around a_j. A NaN bearing blocks, and is blocked
  // by, everyone; it never becomes a key.
  std::vector<std::pair<double, std::size_t>> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isnan(poses[i].azimuth_deg)) sorted.emplace_back(poses[i].azimuth_deg, i);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  // Each node's key is its rank among the distinct bearings. -0.0 and 0.0
  // share a key: |±0 - x| is the same for every x.
  constexpr std::size_t kNoKey = ~std::size_t{0};
  std::vector<std::size_t> key_of(n, kNoKey);
  std::vector<double> keys;
  keys.reserve(sorted.size());
  for (const auto& [a, i] : sorted) {
    if (keys.empty() || keys.back() != a) keys.push_back(a);
    key_of[i] = keys.size() - 1;
  }
  const std::size_t m = keys.size();

  // Blocking window [lo[p], hi[p]) of key p. Both ends are non-decreasing in
  // p (the same monotonicity), so one two-pointer pass finds them all.
  std::vector<std::size_t> lo(m);
  std::vector<std::size_t> hi(m);
  for (std::size_t p = 0, l = 0, h = 0; p < m; ++p) {
    const double a = keys[p];
    while (l < p && std::abs(keys[l] - a) >= sep) ++l;
    h = std::max(h, p);
    while (h < m && !(std::abs(keys[h] - a) >= sep)) ++h;
    lo[p] = l;
    hi[p] = h;
  }

  // Bottom-up segment tree over the keys (leaves m..2m-1): tree node v holds
  // the slots that block every key beneath it, in a word-major bitset —
  // bit s of node v is word s/64 of row `blocked[(s/64) * 2m + v]`.
  const std::size_t tree = 2 * m;
  std::vector<std::uint64_t> blocked;
  std::size_t words = 0;
  std::size_t n_slots = 0;
  std::vector<std::size_t> slot_of(n);

  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = key_of[i];
    std::size_t s = n_slots;
    std::size_t l = 0;
    std::size_t h = m;
    if (p != kNoKey) {
      // First fit: the lowest slot missing from the OR of the leaf-to-root
      // path. Bits at or above n_slots are never set, so a full path yields
      // s == n_slots, a new slot.
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t* row = blocked.data() + w * tree;
        std::uint64_t taken = 0;
        for (std::size_t v = p + m; v >= 1; v >>= 1) taken |= row[v];
        if (taken != ~std::uint64_t{0}) {
          s = 64 * w + std::size_t(std::countr_one(taken));
          break;
        }
      }
      l = lo[p];
      h = hi[p];
    }
    if (s == n_slots) {
      ++n_slots;
      if (s == 64 * words) blocked.resize(++words * tree, 0);
    }
    slot_of[i] = s;

    // Tag slot s on every key node i blocks: the canonical cover of [l, h).
    std::uint64_t* row = blocked.data() + (s / 64) * tree;
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    for (l += m, h += m; l < h; l >>= 1, h >>= 1) {
      if (l & 1) row[l++] |= bit;
      if (h & 1) row[--h] |= bit;
    }
  }

  // Slot lists in node order, each reserved to its exact size.
  std::vector<std::size_t> counts(n_slots, 0);
  for (const std::size_t s : slot_of) ++counts[s];
  std::vector<std::vector<std::size_t>> slots(n_slots);
  for (std::size_t s = 0; s < n_slots; ++s) slots[s].reserve(counts[s]);
  for (std::size_t i = 0; i < n; ++i) slots[slot_of[i]].push_back(i);

  std::size_t placed = 0;
  for (const auto& slot : slots) {
    MILBACK_ENSURE(std::is_sorted(slot.begin(), slot.end()),
                   "sdm_partition: slot members must be ascending");
    placed += slot.size();
  }
  MILBACK_ENSURE(placed == poses.size(),
                 "sdm_partition: every node must land in exactly one slot");
  return slots;
}

// milback-analyze: no-contract(total flattening; one service per (slot, member) pair by construction)
std::vector<SdmService> flatten_services(
    const std::vector<std::vector<std::size_t>>& slots) {
  std::vector<SdmService> services;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (const std::size_t i : slots[s]) services.push_back(SdmService{s, i});
  }
  return services;
}

double inter_node_isolation_db(const channel::BackscatterChannel& channel,
                               const channel::NodePose& a,
                               const channel::NodePose& b) {
  require_finite(a.azimuth_deg, "a.azimuth_deg");
  require_finite(b.azimuth_deg, "b.azimuth_deg");
  const double offset = std::abs(a.azimuth_deg - b.azimuth_deg);
  const auto& tx = channel.ap_tx_antenna();
  const auto& rx = channel.ap_rx_antenna();
  // The beam serving node a both illuminates node b and receives from it
  // attenuated by the pattern at the bearing offset (two pattern passes).
  const double tx_rejection = tx.config().boresight_gain_dbi - tx.gain_dbi(offset);
  const double rx_rejection = rx.config().boresight_gain_dbi - rx.gain_dbi(offset);
  return tx_rejection + rx_rejection;
}

double probe_service_rate_bps(const channel::BackscatterChannel& channel,
                              const channel::NodePose& pose,
                              const core::RateAdaptConfig& rate) {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const auto pair = channel.fsa().carrier_pair_for_angle(pose.orientation_deg);
  if (!pair) return 0.0;
  // The probe's default switch is fixed, so its coefficient is too.
  static const double kModCoeff =
      channel::modulation_power_coeff(rf::RfSwitch{rf::RfSwitchConfig{}});
  const auto budget = channel::compute_uplink_budget_at_coeff(
      channel, pose, antenna::FsaPort::kA, pair->first, kModCoeff, 10e6);
  return core::service_rate_bps(rate, budget.snr_db);
}

core::NodeRoundResult serve_uplink_node(const core::MilBackLink& link,
                                        std::span<const channel::NodePose> poses,
                                        std::span<const std::string> ids,
                                        const SdmService& sv,
                                        std::span<const std::size_t> slot_members,
                                        std::size_t bits_per_node,
                                        milback::Rng& data_rng,
                                        milback::Rng& noise_rng) {
  MILBACK_REQUIRE(sv.node < poses.size() && poses.size() == ids.size(),
                  "serve_uplink_node: node index out of range");
  const std::size_t i = sv.node;
  core::NodeRoundResult nr;
  nr.id = ids[i];
  nr.sdm_slot = sv.slot;

  const auto bits = data_rng.bits(bits_per_node);
  nr.uplink = link.run_uplink(poses[i], bits, noise_rng);

  // Degrade the budget SNR by concurrent transmitters in this slot.
  double interference_w = 0.0;
  rf::RfSwitch sw(link.node().config().rf_switch);
  const double mod = channel::modulation_power_coeff(sw);
  for (const std::size_t j : slot_members) {
    if (j == i) continue;
    const double p_j = dbm2watt(link.channel().backscatter_power_dbm(
        antenna::FsaPort::kA,
        link.channel().fsa().config().center_frequency_hz, poses[j], mod));
    // milback-analyze: no-reduction(interferer sum in fixed node-index order within one service call)
    interference_w +=
        p_j * db2lin(-inter_node_isolation_db(link.channel(), poses[i], poses[j]));
  }
  const double signal_w = dbm2watt(
      nr.uplink.carriers_ok
          ? link.channel().backscatter_power_dbm(
                antenna::FsaPort::kA, nr.uplink.carriers.f_a_hz, poses[i], mod)
          : -300.0);
  const double noise_w = link.channel().effective_uplink_noise_w(
      signal_w, link.config().uplink_bit_rate_bps);
  nr.effective_snr_db = lin2db(std::max(signal_w, 1e-300) /
                               (noise_w + interference_w));

  const double ber = core::ber_ook_noncoherent(db2lin(nr.effective_snr_db));
  nr.goodput_bps = (1.0 - ber) * link.config().uplink_bit_rate_bps;
  return nr;
}

core::NodeDownlinkResult serve_downlink_node(
    const core::MilBackLink& link, std::span<const channel::NodePose> poses,
    std::span<const std::string> ids, const SdmService& sv,
    std::span<const std::size_t> slot_members, std::size_t bits_per_node,
    milback::Rng& data_rng, milback::Rng& noise_rng) {
  MILBACK_REQUIRE(sv.node < poses.size() && poses.size() == ids.size(),
                  "serve_downlink_node: node index out of range");
  const std::size_t i = sv.node;
  core::NodeDownlinkResult nr;
  nr.id = ids[i];
  nr.sdm_slot = sv.slot;

  const auto bits = data_rng.bits(bits_per_node);
  nr.downlink = link.run_downlink(poses[i], bits, noise_rng);

  // Inter-beam leakage: the beam serving node j also illuminates node i,
  // attenuated by the TX horn pattern at their bearing offset. Node i's
  // detector integrates that extra power as interference on top of its
  // own cross-port (sidelobe) term and detector noise.
  if (nr.downlink.carriers_ok) {
    const rf::EnvelopeDetector det{link.node().config().detector};
    const double p_sig_w = dbm2watt(link.channel().incident_port_power_dbm(
        antenna::FsaPort::kA, nr.downlink.carriers.f_a_hz, poses[i]));
    double interference_w =
        p_sig_w * db2lin(link.channel().fsa().config().sidelobe_floor_db);
    const auto& tx = link.channel().ap_tx_antenna();
    for (const std::size_t j : slot_members) {
      if (j == i) continue;
      const double offset =
          std::abs(poses[i].azimuth_deg - poses[j].azimuth_deg);
      const double rejection_db =
          tx.config().boresight_gain_dbi - tx.gain_dbi(offset);
      // milback-analyze: no-reduction(interferer sum in fixed node-index order within one service call)
      interference_w += p_sig_w * db2lin(-rejection_db);
    }
    const double noise_eq_w = det.input_power_for_voltage(std::sqrt(
        det.noise_power_v2(link.config().downlink_measurement_bw_hz)));
    nr.effective_sinr_db = lin2db(p_sig_w / (noise_eq_w + interference_w));
    const double ber = core::ber_ook_noncoherent(db2lin(nr.effective_sinr_db));
    nr.goodput_bps = (1.0 - ber) * link.config().downlink_bit_rate_bps;
  }
  return nr;
}

}  // namespace milback::cell
