// Shared rate-adaptation policy — the single source of truth for the
// Fig 15 operating-point thresholds.
//
// The session layer and the cell engine's scheduler both pick between the
// paper's 10 and 40 Mbps uplink operating points from a budget SNR. Before
// this header existed each layer carried its own copy of the thresholds
// (and they drifted: the session said 10 Mbps needs 12 dB while the
// scheduler said 10 dB). Every consumer now embeds one RateAdaptConfig, so
// a re-calibration lands everywhere at once.
//
// Two decision flavours exist because the layers ask different questions:
//   service_rate_bps()  -- the scheduler's question: "is this node worth a
//                          slot at all?" (0 bps = skip it);
//   adapt_rate()        -- the session's question: "the link is up, what do
//                          I send next?" (never gives up: below the 10 Mbps
//                          threshold it keeps trying at 10 Mbps with FEC).
#pragma once

namespace milback::core {

/// Rate-adaptation thresholds shared by AdaptiveSession and CellEngine.
struct RateAdaptConfig {
  double snr_for_40mbps_db = 16.0;  ///< Budget SNR to run 40 Mbps raw
                                    ///< (~6 dB over 10 Mbps: 4x noise
                                    ///< bandwidth).
  double snr_for_10mbps_db = 10.0;  ///< Budget SNR to run 10 Mbps raw; the
                                    ///< scheduler skips nodes below this.
  double fec_margin_db = 3.0;       ///< Enable Hamming(7,4) within this
                                    ///< margin of the chosen rate's
                                    ///< threshold.
};

/// A session-style decision: chosen raw rate plus whether FEC is switched in.
struct RateDecision {
  double rate_bps = 0.0;  ///< Chosen raw channel rate.
  bool fec = false;       ///< Whether Hamming(7,4) is applied.
};

/// Scheduler decision: 40e6 / 10e6 / 0 bps (0 = not worth a service slot).
double service_rate_bps(const RateAdaptConfig& config, double snr_db);

/// Session decision: rate plus FEC, falling back to 10 Mbps + FEC below the
/// 10 Mbps threshold (an established link keeps trying; see session.hpp).
RateDecision adapt_rate(const RateAdaptConfig& config, double snr_db);

}  // namespace milback::core
