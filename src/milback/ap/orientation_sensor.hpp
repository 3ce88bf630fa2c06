// AP-side orientation sensing (Section 5.2(a) of the paper).
//
// The node puts port B in absorb and toggles port A between absorb and
// reflect across chirps; the AP subtracts the RX0 spectra of the first chirp
// pair (reflect, then absorb), so only chirps 0 and 1 are transformed. It
// IFFTs that difference back to the time domain and reads off which chirp
// frequencies produced the strongest reflection. The FSA scan law maps that
// aligned frequency to the node's orientation. The node's partially-modulated
// ground-plane mirror reflection survives subtraction and degrades the
// estimate near the specular-collision orientations (-6..-2 degrees),
// reproducing the Fig 13b error bump.
//
// That modulation is Field 2's, so one Field-2 burst serves both the
// localizer and this sensor: a packet hands the localizer's RX0 beats to
// estimate(channel, rx0_beats, rng). The pose overload is the standalone
// measurement: it synthesizes its own burst, then runs the same processing.
// That burst carries no RX1 beats (the sensor reads none); their noise draws
// are discarded, so the RNG stream matches a full two-antenna burst.
#pragma once

#include <optional>

#include "milback/ap/localizer.hpp"
#include "milback/radar/spectrum_profile.hpp"

namespace milback::ap {

/// Orientation-sensor parameters (the Field-2 chirp, sample rate and chirp
/// count come from the LocalizerConfig the sensor is built with).
struct OrientationSensorConfig {
  radar::ProfileConfig profile{};      ///< Power-vs-frequency binning.
  double frequency_jitter_hz = 30e6;   ///< Per-trial chirp-vs-FSA frequency
                                       ///< calibration tolerance (VXG segment
                                       ///< patching + board fabrication).
};

/// One AP-side orientation estimate.
struct ApOrientationResult {
  bool valid = false;                   ///< Whether a profile peak was found.
  double orientation_deg = 0.0;         ///< Estimated node orientation.
  double f_peak_hz = 0.0;               ///< Aligned frequency found.
};

/// Estimates node orientation from the reflected-power spectrum.
class ApOrientationSensor {
 public:
  /// Builds the sensor over the Field-2 burst `radar` describes; the
  /// range-FFT window is forced rectangular so the recovered time envelope
  /// is the FSA pattern, not the window shape.
  explicit ApOrientationSensor(const LocalizerConfig& radar = {},
                               const OrientationSensorConfig& config = {});

  /// Runs one standalone orientation measurement of the node at `pose`:
  /// synthesizes a Field-2 burst, then estimate(channel, burst.rx0, rng).
  ApOrientationResult estimate(const channel::BackscatterChannel& channel,
                               const channel::NodePose& pose, milback::Rng& rng) const;

  /// Estimates the orientation from the RX0 beats of a Field-2 burst (port A
  /// toggling from reflect, port B absorbing). Reads chirps 0 and 1 only;
  /// needs >= 2 beats, the first two of equal length. `rng` draws the
  /// calibration jitter.
  ApOrientationResult estimate(const channel::BackscatterChannel& channel,
                               const ChirpBeats& rx0_beats, milback::Rng& rng) const;

  /// Config echo.
  const OrientationSensorConfig& config() const noexcept { return config_; }

 private:
  OrientationSensorConfig config_;
  Localizer localizer_;
};

}  // namespace milback::ap
