// Plain value types of multi-node service: network configuration, traffic
// descriptions and SDM round outcomes.
//
// The cell engine (src/milback/cell/) produces and consumes them; they live
// in core, below the engine, so the per-node service primitives in
// cell/sdm.hpp can name them without including the engine.
#pragma once

#include <string>
#include <vector>

#include "milback/core/link.hpp"

namespace milback::core {

/// Network-level configuration.
struct NetworkConfig {
  LinkConfig link{};
  double sdm_min_separation_deg = 20.0;  ///< Bearing separation for concurrent
                                         ///< beams (~ horn beamwidth).
};

/// Traffic description for one node.
struct TrafficSpec {
  channel::NodePose pose{};          ///< Where the tag sits.
  double arrival_rate_bps = 50e3;    ///< Mean offered uplink load.
  double burstiness = 1.0;           ///< Arrival jitter: 0 = CBR, 1 = heavy jitter.
};

/// One node's slice of an uplink service round.
struct NodeRoundResult {
  std::string id;
  UplinkRunResult uplink{};
  double effective_snr_db = 0.0;  ///< Budget SNR after inter-node interference.
  double goodput_bps = 0.0;       ///< (1 - BER) * rate / slot-share.
  std::size_t sdm_slot = 0;       ///< Which concurrent slot served this node.
};

/// Outcome of one full uplink service round.
struct RoundResult {
  std::vector<NodeRoundResult> nodes;
  std::size_t sdm_slots = 0;       ///< Number of sequential slots used.
  double aggregate_goodput_bps = 0.0;
};

/// One node's slice of a downlink round.
struct NodeDownlinkResult {
  std::string id;
  DownlinkRunResult downlink{};
  double effective_sinr_db = 0.0;  ///< Budget SINR after inter-beam leakage.
  double goodput_bps = 0.0;        ///< (1 - BER) * rate / slot share.
  std::size_t sdm_slot = 0;
};

/// Outcome of one downlink service round.
struct DownlinkRoundResult {
  std::vector<NodeDownlinkResult> nodes;
  std::size_t sdm_slots = 0;
  double aggregate_goodput_bps = 0.0;
};

}  // namespace milback::core
