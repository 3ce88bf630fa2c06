// Adaptive link management — the session layer a deployed MilBack AP needs
// on top of the paper's per-packet primitives.
//
// A session owns one node's life cycle:
//   kAcquiring: sweep the sector with the beam scanner until the node's
//               modulated return is found;
//   kTracking:  per round, localize + update the alpha-beta track, adapt the
//               uplink rate (Fig 15's 10 vs 40 Mbps operating points) and
//               the Hamming(7,4) FEC decision to the current SNR margin,
//               then run the payload exchange;
//   kLost:      too many missed fixes -> fall back to acquisition.
//
// Rate adaptation uses the same budget the benches sweep: 40 Mbps needs
// ~6 dB more SNR than 10 Mbps (4x noise bandwidth); FEC is switched in when
// the margin over the raw-BER target gets thin.
//
// A session is only this state machine. Every step runs on a MilBackLink
// its caller owns — the AP's one radar, localizer and channel, shared by
// every session the AP serves — and the scan refines with that localizer.
#pragma once

#include "milback/ap/beam_scanner.hpp"
#include "milback/core/fec.hpp"
#include "milback/core/link.hpp"
#include "milback/core/rate_adapt.hpp"
#include "milback/core/tracker.hpp"

namespace milback::core {

/// Session tuning.
struct SessionConfig {
  ap::BeamScanConfig scan{};
  TrackerConfig tracker{};
  RateAdaptConfig rate{};           ///< Shared rate/FEC thresholds (the same
                                    ///< source of truth the MAC and cell
                                    ///< engine consume).
  std::size_t payload_bits = 512;   ///< Data bits per round.
  std::size_t max_comm_failures = 3;  ///< Consecutive failed payload rounds
                                      ///< before the link is declared lost
                                      ///< (the node's modulated reply is the
                                      ///< only trustworthy liveness signal —
                                      ///< a static clutter residue can fake a
                                      ///< localization fix, but it cannot
                                      ///< answer a query).
  double comm_failure_ber = 0.2;    ///< Payload BER above this counts as a
                                    ///< failed round.
  double ber_backoff = 1e-3;        ///< Smoothed payload BER above this forces
                                    ///< the conservative rate + FEC regardless
                                    ///< of what the (possibly fooled) budget
                                    ///< says — measured link quality outranks
                                    ///< the model.
};

/// Where the session's state machine is.
enum class SessionState { kAcquiring, kTracking, kLost };

/// One round's outcome.
struct SessionStep {
  SessionState state = SessionState::kAcquiring;  ///< State AFTER the round.
  bool localized = false;           ///< This round produced a fix.
  double range_m = 0.0;             ///< Smoothed track range.
  double angle_deg = 0.0;           ///< Smoothed track bearing.
  double raw_range_m = 0.0;         ///< This round's unsmoothed fix range
                                    ///< (0 when not localized).
  double raw_angle_deg = 0.0;       ///< This round's unsmoothed fix bearing.
  double speed_mps = 0.0;           ///< Track's range-rate estimate.
  double budget_snr_db = 0.0;       ///< Uplink budget SNR at the fix.
  double uplink_rate_bps = 0.0;     ///< Chosen channel rate (0 in acquisition).
  bool fec_enabled = false;         ///< Whether Hamming(7,4) was applied.
  std::size_t payload_bit_errors = 0;  ///< Post-FEC data-bit errors.
  double delivered_data_bps = 0.0;  ///< Good data bits / payload air time.
};

/// One node's adaptive session.
class AdaptiveSession {
 public:
  /// Builds a session in kAcquiring.
  explicit AdaptiveSession(const SessionConfig& config = {});

  /// Runs one protocol round on `link` against the node's current true
  /// pose.
  SessionStep step(const MilBackLink& link, const channel::NodePose& true_pose,
                   milback::Rng& rng);

  /// Current state.
  SessionState state() const noexcept { return state_; }

  /// The track (valid while kTracking).
  const NodeTracker& tracker() const noexcept { return tracker_; }

  /// Config echo.
  const SessionConfig& config() const noexcept { return config_; }

 private:
  /// Picks (rate, fec) from a budget SNR.
  std::pair<double, bool> adapt(double snr_db) const;

  SessionConfig config_;
  ap::BeamScanner scanner_;
  NodeTracker tracker_;
  SessionState state_ = SessionState::kAcquiring;
  std::size_t comm_failures_ = 0;
  double measured_ber_ema_ = 0.0;
};

}  // namespace milback::core
