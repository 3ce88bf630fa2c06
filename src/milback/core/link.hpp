// End-to-end MilBack link: one AP + one node + the channel between them,
// composed into the paper's workflows (localize, sense orientation at both
// ends, downlink, uplink, and the full Section-7 packet exchange).
//
// Every run_* method is a self-contained Monte-Carlo trial: it synthesizes
// the relevant waveforms through the channel with the supplied RNG, runs the
// real demodulation pipelines, and reports both measured outcomes and the
// analytic budgets the benches sweep.
#pragma once

#include <optional>
#include <vector>

#include "milback/ap/ap.hpp"
#include "milback/channel/backscatter_channel.hpp"
#include "milback/channel/link_budget.hpp"
#include "milback/core/oaqfm_dense.hpp"
#include "milback/core/packet.hpp"
#include "milback/node/downlink_demodulator.hpp"
#include "milback/node/node.hpp"
#include "milback/node/orientation_estimator.hpp"
#include "milback/node/uplink_modulator.hpp"

namespace milback::core {

/// Link-level configuration.
struct LinkConfig {
  ap::ApConfig ap{};
  node::NodeConfig node{};
  PacketConfig packet{};
  double downlink_bit_rate_bps = 36e6;  ///< Paper's maximum downlink rate.
  double uplink_bit_rate_bps = 10e6;    ///< Fig 15a operating point.
  double node_sim_rate_hz = 16e6;       ///< Detector-waveform simulation rate
                                        ///< for Field-1/orientation traces.
  double downlink_measurement_bw_hz = 1e9;  ///< Fig 14 SINR noise bandwidth.
};

/// One downlink payload exchange.
struct DownlinkRunResult {
  bool carriers_ok = false;            ///< Orientation sensing + carrier pick worked.
  ModulationMode mode = ModulationMode::kOaqfm;
  ap::CarrierSelection carriers{};     ///< Tones used.
  double orientation_estimate_deg = 0.0;  ///< AP's sensed orientation.
  std::size_t bits_sent = 0;
  std::size_t bit_errors = 0;
  double ber = 0.0;                    ///< Measured payload BER.
  double sinr_db = 0.0;                ///< Analytic worst-port SINR (Fig 14).
  double analytic_ber = 0.0;           ///< BER predicted from the budget.
};

/// One uplink payload exchange.
struct UplinkRunResult {
  bool carriers_ok = false;
  ModulationMode mode = ModulationMode::kOaqfm;
  ap::CarrierSelection carriers{};
  double orientation_estimate_deg = 0.0;
  std::size_t bits_sent = 0;
  std::size_t bit_errors = 0;
  double ber = 0.0;
  double snr_db = 0.0;            ///< Analytic worst-tone SNR (Fig 15).
  double measured_snr_db = 0.0;   ///< Decision-statistic SNR at the AP.
  double analytic_ber = 0.0;
};

/// One full Section-7 packet exchange.
struct PacketRunResult {
  LinkDirection requested = LinkDirection::kDownlink;
  std::optional<LinkDirection> detected;  ///< Node's Field-1 mode detection.
  bool direction_ok = false;
  ap::LocalizationResult localization{};  ///< Field-2 outcome (range/AoA).
  ap::ApOrientationResult ap_orientation{};  ///< Field-2 outcome (AP-sensed
                                             ///< orientation; the payload's
                                             ///< carrier input).
  std::optional<node::NodeOrientationEstimate> node_orientation;  ///< Field-1 outcome.
  std::optional<DownlinkRunResult> downlink;  ///< Payload (downlink packets).
  std::optional<UplinkRunResult> uplink;      ///< Payload (uplink packets).
  PacketTiming timing{};       ///< Phase durations.
  double node_energy_j = 0.0;  ///< Node energy spent on the whole packet.
};

/// One AP + one node + a channel.
class MilBackLink {
 public:
  /// Builds the link over an existing channel.
  MilBackLink(channel::BackscatterChannel channel, LinkConfig config = {});

  /// Field-2 localization (five-chirp FMCW burst).
  ap::LocalizationResult localize(const channel::NodePose& pose, milback::Rng& rng) const;

  /// AP-side orientation sensing.
  ap::ApOrientationResult sense_orientation_at_ap(const channel::NodePose& pose,
                                                  milback::Rng& rng) const;

  /// Node-side orientation sensing from one triangular chirp: simulates the
  /// detector traces at both ports, samples them with the MCU ADC and runs
  /// the peak-delay estimator.
  std::optional<node::NodeOrientationEstimate> sense_orientation_at_node(
      const channel::NodePose& pose, milback::Rng& rng) const;

  /// The node's Field-1 MCU envelope trace (both ports summed is not used;
  /// `port` selects which detector). Used for direction detection and tests.
  std::vector<double> node_field1_trace(const channel::NodePose& pose,
                                        antenna::FsaPort port, LinkDirection direction,
                                        milback::Rng& rng) const;

  /// Downlink payload exchange at the configured rate, after its own AP
  /// orientation measurement.
  DownlinkRunResult run_downlink(const channel::NodePose& pose,
                                 const std::vector<bool>& bits, milback::Rng& rng) const;

  /// Dense-OAQFM downlink exchange (paper §9.4 extension): L power levels
  /// per tone, 2*log2(L) bits/symbol. Requires a non-degenerate carrier
  /// pair (falls back to carriers_ok = false at normal incidence).
  DownlinkRunResult run_downlink_dense(const channel::NodePose& pose,
                                       const std::vector<bool>& bits, unsigned levels,
                                       milback::Rng& rng) const;

  /// Uplink payload exchange after its own AP orientation measurement;
  /// `bit_rate_bps` <= 0 uses the configured rate.
  UplinkRunResult run_uplink(const channel::NodePose& pose, const std::vector<bool>& bits,
                             milback::Rng& rng, double bit_rate_bps = 0.0) const;

  /// Full packet, one preamble: one Field 1 and one Field 2 serve all four
  /// estimates. The node detects `direction` from its two Field-1 port
  /// traces and estimates its orientation from their first chirp; the AP
  /// localizes on the Field-2 burst and senses the node's orientation from
  /// that burst's RX0 beats; the payload in `direction` picks its carriers
  /// from that AP estimate. No extra sensing waveform is simulated.
  PacketRunResult run_packet(const channel::NodePose& pose, LinkDirection direction,
                             const std::vector<bool>& payload_bits,
                             milback::Rng& rng) const;

  /// Component access.
  const channel::BackscatterChannel& channel() const noexcept { return channel_; }
  channel::BackscatterChannel& channel() noexcept { return channel_; }
  const ap::MilBackAp& access_point() const noexcept { return ap_; }
  const node::MilBackNode& node() const noexcept { return node_; }
  const LinkConfig& config() const noexcept { return config_; }

 private:
  /// Incident-power waveform at one node port across Field-1 chirps.
  std::vector<double> field1_port_power(const channel::NodePose& pose,
                                        antenna::FsaPort port,
                                        LinkDirection direction) const;

  /// Node orientation from one triangular chirp's MCU traces at both ports.
  std::optional<node::NodeOrientationEstimate> node_orientation_from_traces(
      const std::vector<double>& trace_a, const std::vector<double>& trace_b) const;

  /// Downlink payload with carriers picked from an AP orientation estimate.
  DownlinkRunResult downlink_payload(const channel::NodePose& pose,
                                     const std::vector<bool>& bits,
                                     const ap::ApOrientationResult& orient,
                                     milback::Rng& rng) const;

  /// Uplink payload at `bit_rate_bps` with carriers picked from an AP
  /// orientation estimate.
  UplinkRunResult uplink_payload(const channel::NodePose& pose,
                                 const std::vector<bool>& bits,
                                 const ap::ApOrientationResult& orient,
                                 double bit_rate_bps, milback::Rng& rng) const;

  channel::BackscatterChannel channel_;
  LinkConfig config_;
  ap::MilBackAp ap_;
  node::MilBackNode node_;
};

}  // namespace milback::core
