// Directional horn antenna model — Mi-Wave 261(34)-20/595 stand-in (20 dBi).
//
// The AP mechanically steers these horns in the paper; the model provides a
// boresight gain and a Gaussian rolloff with angle, which is accurate within
// the main lobe (where the AP operates once pointed at the node) plus a
// sidelobe floor.
#pragma once

namespace milback::rf {

/// Horn parameters.
struct HornAntennaConfig {
  double boresight_gain_dbi = 20.0;  ///< Peak gain.
  double beamwidth_deg = 18.0;       ///< 3 dB full beamwidth.
  double sidelobe_floor_dbi = -5.0;  ///< Gain far outside the main lobe.
};

/// Gaussian-mainlobe directional antenna.
class HornAntenna {
 public:
  /// Constructs with the given pattern parameters (throws
  /// std::invalid_argument on non-positive beamwidth).
  explicit HornAntenna(const HornAntennaConfig& config);

  /// Gain [dBi] at `offset_deg` from boresight.
  double gain_dbi(double offset_deg) const;

  /// Linear power gain at `offset_deg` from boresight.
  double gain_linear(double offset_deg) const;

  /// Config echo.
  const HornAntennaConfig& config() const noexcept { return config_; }

 private:
  HornAntennaConfig config_;
};

}  // namespace milback::rf
