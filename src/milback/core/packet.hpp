// MilBack packet structure and preamble signalling (Section 7, Figure 8).
//
// A packet is [Field 1 | Field 2 | payload]:
//   * Field 1 — triangular chirps. The node (ports absorptive) senses its own
//     orientation from the envelope peaks AND learns the payload direction
//     from the chirp count: 3 chirps back-to-back = uplink, 2 chirps with a
//     gap = downlink.
//   * Field 2 — five sawtooth chirps while the node toggles a port: the AP
//     localizes the node and senses its orientation.
//   * Payload — OAQFM symbols, uplink or downlink, of preconfigured length.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "milback/radar/chirp.hpp"

namespace milback::core {

/// Payload direction of a packet.
enum class LinkDirection { kUplink, kDownlink };

/// Preamble layout.
struct PreambleConfig {
  radar::ChirpConfig field1 = radar::field1_chirp();  ///< Triangular, 45 us.
  radar::ChirpConfig field2 = radar::field2_chirp();  ///< Sawtooth, 18 us.
  std::size_t field1_chirps_uplink = 3;    ///< Chirp count signalling uplink.
  std::size_t field1_chirps_downlink = 2;  ///< Chirp count signalling downlink.
  double field1_gap_s = 67.5e-6;  ///< Mid-field gap in downlink mode (1.5 chirps).
  std::size_t field2_chirps = 5;  ///< Localization burst length.
};

/// Whole-packet layout.
struct PacketConfig {
  PreambleConfig preamble{};
  std::size_t payload_symbols = 512;  ///< Predefined payload length (symbols).
};

/// Wall-clock budget of one packet.
struct PacketTiming {
  double field1_s = 0.0;
  double field2_s = 0.0;
  double payload_s = 0.0;
  double total_s = 0.0;
};

/// Computes packet timing for a direction at `symbol_rate_hz`.
PacketTiming compute_timing(const PacketConfig& config, LinkDirection direction,
                            double symbol_rate_hz);

/// Field-1 transmission schedule: chirp start times (seconds from field start).
std::vector<double> field1_chirp_starts(const PreambleConfig& config,
                                        LinkDirection direction);

/// Node-side direction detection from its Field-1 envelope trace: the node
/// cannot count chirps directly (it only sees peaks when the sweep crosses
/// its aligned frequency), so it looks for a quiet window longer than
/// `gap_threshold_s` strictly inside the active span — present only in the
/// 2-chirps-plus-gap downlink preamble. Returns std::nullopt if no activity
/// was found at all.
std::optional<LinkDirection> detect_direction(const std::vector<double>& envelope_v,
                                              double fs, const PreambleConfig& config,
                                              double activity_threshold_rel = 0.35);

}  // namespace milback::core
