// SDM scheduling and per-node service primitives of the cell engine.
//
// These are the Section-7 mechanics: greedy first-fit bearing-separation
// slotting, the horn-pattern isolation between concurrent beams, one node's
// waveform-level uplink/downlink service within a slot, and the
// budget-based service-rate probe the scheduler uses to decide whether a
// node is worth a slot.
//
// tests/integration/test_cell_equivalence.cpp pins every one of them,
// field for field, against reference loops of the original per-round
// service (the same arithmetic and the same RNG consumption).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "milback/core/rate_adapt.hpp"
#include "milback/core/round_types.hpp"

namespace milback::cell {

/// Greedy SDM scheduling: partitions [0, poses.size()) into slots such that
/// all nodes in a slot are pairwise separated by `min_separation_deg`.
std::vector<std::vector<std::size_t>> sdm_partition(
    std::span<const channel::NodePose> poses, double min_separation_deg);

/// One (slot, node) service of a round, in slot-major order.
struct SdmService {
  std::size_t slot = 0;
  std::size_t node = 0;
};

/// Flattens an sdm_partition into slot-major (slot, node) pairs — the
/// engine's trial index space for a round.
std::vector<SdmService> flatten_services(
    const std::vector<std::vector<std::size_t>>& slots);

/// Power isolation [dB] between the beams serving two bearings (TX + RX
/// horn pattern attenuation at the bearing offset).
double inter_node_isolation_db(const channel::BackscatterChannel& channel,
                               const channel::NodePose& a,
                               const channel::NodePose& b);

/// Budget-based service rate [bps] for a pose (0 = not worth a slot),
/// evaluated at the shared 10 Mbps reference bandwidth.
double probe_service_rate_bps(const channel::BackscatterChannel& channel,
                              const channel::NodePose& pose,
                              const core::RateAdaptConfig& rate);

/// Serves node `sv.node` in slot `sv.slot` of a waveform-level uplink round:
/// runs the real uplink exchange and degrades the budget SNR by the other
/// concurrent transmitters in the slot.
core::NodeRoundResult serve_uplink_node(const core::MilBackLink& link,
                                        std::span<const channel::NodePose> poses,
                                        std::span<const std::string> ids,
                                        const SdmService& sv,
                                        std::span<const std::size_t> slot_members,
                                        std::size_t bits_per_node,
                                        milback::Rng& data_rng,
                                        milback::Rng& noise_rng);

/// Serves node `sv.node` in slot `sv.slot` of a waveform-level downlink
/// round: concurrent beams leak into each other through the TX horn pattern.
core::NodeDownlinkResult serve_downlink_node(
    const core::MilBackLink& link, std::span<const channel::NodePose> poses,
    std::span<const std::string> ids, const SdmService& sv,
    std::span<const std::size_t> slot_members, std::size_t bits_per_node,
    milback::Rng& data_rng, milback::Rng& noise_rng);

}  // namespace milback::cell
