// Van Atta retrodirective array model (Sharp & Diab 1960; the antenna used
// by mmTag, Millimetro and similar tags).
//
// Pairs of antennas connected by equal-length traces re-radiate an incident
// wavefront back toward its arrival direction over a wide field of view —
// without any signal port. That portlessness is exactly why Van Atta tags
// cannot receive a downlink (Section 4 of the MilBack paper): there is no
// place to tap the signal for a local receiver, and the trace lengths are
// too delicate to insert switches mid-trace.
#pragma once

namespace milback::baselines {

/// Van Atta array parameters.
struct VanAttaConfig {
  unsigned n_elements = 16;       ///< Antenna elements (8 connected pairs).
  double element_gain_dbi = 5.0;  ///< Per-element patch gain.
  double trace_loss_db = 1.0;     ///< Transmission-line loss per pass.
  double field_of_view_deg = 45.0;  ///< Retrodirective half-angle.
};

/// Passive retrodirective reflector.
class VanAttaArray {
 public:
  /// Builds the array (throws std::invalid_argument for zero elements).
  explicit VanAttaArray(const VanAttaConfig& config = {});

  /// One-way aperture gain [dBi] toward `incidence_deg` (element pattern
  /// rolls off; outside the FOV the retrodirective property collapses).
  double aperture_gain_dbi(double incidence_deg) const;

  /// Full retrodirective round-trip gain [dB]: receive aperture + re-radiate
  /// aperture - trace loss. This is what multiplies the backscatter link.
  double retro_gain_db(double incidence_deg) const noexcept;

  /// Whether the array has a signal port a receiver could tap. Always false:
  /// this is the structural reason Van Atta tags are uplink/localization
  /// only.
  static constexpr bool has_signal_port() noexcept { return false; }

  /// Config echo.
  const VanAttaConfig& config() const noexcept { return config_; }

 private:
  VanAttaConfig config_;
};

}  // namespace milback::baselines
