// Analytic link budgets for the three MilBack links (downlink, uplink,
// radar/localization). The waveform-level pipelines in milback/ap and
// milback/node must agree with these closed forms — tests cross-check them —
// and the Fig 14/15 benches sweep them over distance.
#pragma once

#include <string>
#include <vector>

#include "milback/channel/backscatter_channel.hpp"
#include "milback/rf/envelope_detector.hpp"
#include "milback/rf/rf_switch.hpp"

namespace milback::channel {

/// One labelled term of a budget breakdown, for human-readable printouts.
struct BudgetTerm {
  std::string label;  ///< e.g. "FSPL (one way)".
  double value_db;    ///< Contribution in dB (sign already applied).
};

/// Downlink (AP -> node) budget at one FSA port.
struct DownlinkBudget {
  double signal_dbm = 0.0;        ///< Wanted tone power at the port feed.
  double interference_dbm = 0.0;  ///< Other tone leaking into this port.
  double detector_noise_dbm = 0.0;  ///< Detector noise referred to RF input.
  double sinr_db = 0.0;           ///< Signal / (interference + noise) at the
                                  ///< detector decision variable.
  double snr_db = 0.0;            ///< Noise-only ratio (ignoring the other tone).
  double sir_db = 0.0;            ///< Interference-only ratio.
  std::vector<BudgetTerm> terms;  ///< Printable breakdown.
};

/// Uplink (node -> AP) budget for one tone.
struct UplinkBudget {
  double rx_signal_dbm = 0.0;   ///< Modulated backscatter power at the AP RX.
  double noise_dbm = 0.0;       ///< Effective noise (thermal + residual SI).
  double snr_db = 0.0;          ///< rx_signal / noise.
  double noise_bandwidth_hz = 0.0;  ///< Bandwidth used for the noise floor.
};

/// Radar (localization) budget for the node's switched reflection.
struct RadarBudget {
  double rx_signal_dbm = 0.0;   ///< Node reflection at the AP RX (per chirp).
  double clutter_dbm = 0.0;     ///< Total static clutter power.
  double noise_dbm = 0.0;       ///< Thermal floor in the beat bandwidth.
  double snr_db = 0.0;          ///< After FMCW processing gain.
  double processing_gain_db = 0.0;  ///< Chirp-compression gain used.
};

/// Effective modulation power coefficient of OOK backscatter through an RF
/// switch: ((sqrt(G_reflect) - sqrt(G_absorb)) / 2)^2 — the fraction of
/// incident power that ends up in the data-bearing component.
double modulation_power_coeff(const rf::RfSwitch& sw);

/// Computes the downlink budget at `port` for a tone at `f_signal_hz` while
/// the other OAQFM tone sits at `f_other_hz`, with detector noise measured
/// over `measurement_bw_hz` (the paper's Fig 14 uses 1 GHz).
DownlinkBudget compute_downlink_budget(const BackscatterChannel& channel,
                                       const NodePose& pose, antenna::FsaPort port,
                                       double f_signal_hz, double f_other_hz,
                                       const rf::EnvelopeDetector& detector,
                                       const rf::RfSwitch& sw, double measurement_bw_hz);

/// Computes the uplink budget for one tone at `f_hz` backscattered through
/// `port` at `bit_rate_bps` (noise bandwidth == bit rate, matching the
/// paper's 10-vs-40 Mbps noise-floor comparison).
UplinkBudget compute_uplink_budget(const BackscatterChannel& channel, const NodePose& pose,
                                   antenna::FsaPort port, double f_hz,
                                   const rf::RfSwitch& sw, double bit_rate_bps);

/// compute_uplink_budget with the switch's modulation_power_coeff (in
/// [0, 1]) given instead of the switch, for callers that probe many poses
/// through one switch and compute the coefficient once. Same arithmetic.
UplinkBudget compute_uplink_budget_at_coeff(const BackscatterChannel& channel,
                                            const NodePose& pose, antenna::FsaPort port,
                                            double f_hz, double mod_coeff,
                                            double bit_rate_bps);

/// Computes the radar budget for a chirp of `chirp_duration_s` with the beat
/// signal sampled at `beat_sample_rate_hz`.
RadarBudget compute_radar_budget(const BackscatterChannel& channel, const NodePose& pose,
                                 const rf::RfSwitch& sw, double chirp_duration_s,
                                 double beat_sample_rate_hz);

/// Printable breakdown of compute_downlink_budget's `signal_dbm` (the same
/// arguments): labelled dB terms that sum to it. Kept apart from the budget
/// so that callers in a loop do not pay for the labels.
std::vector<BudgetTerm> downlink_budget_terms(const BackscatterChannel& channel,
                                              const NodePose& pose, antenna::FsaPort port,
                                              double f_signal_hz, const rf::RfSwitch& sw);

/// Printable breakdown of compute_uplink_budget's `rx_signal_dbm` (the same
/// arguments): labelled dB terms that sum to it.
std::vector<BudgetTerm> uplink_budget_terms(const BackscatterChannel& channel,
                                            const NodePose& pose, antenna::FsaPort port,
                                            double f_hz, const rf::RfSwitch& sw);

/// Renders budget terms as "label: value dB" lines.
std::string format_terms(const std::vector<BudgetTerm>& terms);

}  // namespace milback::channel
