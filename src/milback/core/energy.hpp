// Energy-efficiency accounting (Section 9.6 of the paper).
//
// Reproduces the paper's headline numbers — 18 mW (localization/downlink),
// 32 mW (uplink), 0.5 nJ/bit downlink at 36 Mbps, 0.8 nJ/bit uplink at
// 40 Mbps — and the comparison against mmTag's 2.4 nJ/bit uplink-only tag.
#pragma once

#include <string>
#include <vector>

#include "milback/core/packet.hpp"
#include "milback/node/power_model.hpp"

namespace milback::core {

/// One row of the energy-efficiency comparison.
struct EnergyRow {
  std::string system;      ///< "MilBack downlink", "mmTag", ...
  std::string mode;        ///< Human-readable operating mode.
  double power_mw = 0.0;   ///< Node power draw.
  double bit_rate_mbps = 0.0;
  double nj_per_bit = 0.0;
};

/// MilBack's per-mode operating points from the node power model.
std::vector<EnergyRow> milback_energy_rows(const node::PowerModelConfig& config,
                                           double downlink_rate_bps = 36e6,
                                           double uplink_rate_bps = 40e6);

/// Node energy [J] spent on one packet given its timing, direction and the
/// power model.
double packet_node_energy_j(const PacketTiming& timing, LinkDirection direction,
                            const node::PowerModelConfig& config,
                            double uplink_symbol_rate_hz,
                            double localization_toggle_hz = 10e3);

/// Battery life [hours] for a node duty-cycled at `packets_per_second`,
/// `battery_mwh` milliwatt-hours of storage and the given packet energy.
double battery_life_hours(double packet_energy_j, double packets_per_second,
                          double battery_mwh, double idle_power_w);

}  // namespace milback::core
