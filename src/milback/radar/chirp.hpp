// FMCW chirp definitions (Section 2, Figure 2 of the paper).
//
// Two chirp families appear in the MilBack protocol:
//   * Field 1: triangular chirps, 45 us, used by the node to sense its own
//     orientation (the V-shape yields two envelope peaks whose separation
//     encodes the aligned frequency) and to signal uplink/downlink mode;
//   * Field 2: sawtooth chirps, 18 us, used by the AP for localization.
// Both sweep 26.5 -> 29.5 GHz (3 GHz).
#pragma once

#include <cstddef>

namespace milback::radar {

/// Chirp frequency-vs-time shape.
enum class ChirpShape {
  kSawtooth,    ///< Linear up-sweep, instant flyback.
  kTriangular,  ///< Linear up-sweep then down-sweep (V-shape in f(t)).
};

/// One chirp's parameters.
struct ChirpConfig {
  ChirpShape shape = ChirpShape::kSawtooth;
  double start_frequency_hz = 26.5e9;  ///< Sweep start.
  double bandwidth_hz = 3e9;           ///< Total sweep extent.
  double duration_s = 18e-6;           ///< Chirp duration (full V for triangular).

  /// Sweep slope [Hz/s] of the up-leg. For a triangular chirp the up-leg
  /// covers the full bandwidth in half the duration.
  double slope_hz_per_s() const noexcept;

  /// Instantaneous frequency at time `t` in [0, duration].
  double frequency_at(double t) const;

  /// Time(s) at which the sweep crosses frequency `f`. For a sawtooth there
  /// is one crossing; for a triangular chirp there are two (up and down leg).
  /// Returns the count written into `t_out[2]`; 0 if `f` is out of sweep.
  std::size_t crossings(double f, double t_out[2]) const;

  /// Sweep end frequency.
  double end_frequency_hz() const noexcept {
    return start_frequency_hz + bandwidth_hz;
  }

  /// Band-center frequency.
  double center_frequency_hz() const noexcept {
    return start_frequency_hz + bandwidth_hz / 2.0;
  }

  /// Range resolution c / (2B) delivered by this sweep [m].
  double range_resolution_m() const noexcept;

  /// Beat frequency produced by a round-trip delay `tau` [Hz] on the up-leg.
  double beat_frequency_hz(double tau_s) const noexcept;

  /// Maximum unambiguous range for a beat-signal sample rate `fs` [m].
  double max_range_m(double fs) const noexcept;
};

/// The paper's Field-1 chirp: triangular, 45 us, full band.
ChirpConfig field1_chirp() noexcept;

/// The paper's Field-2 chirp: sawtooth, 18 us, full band.
ChirpConfig field2_chirp() noexcept;

}  // namespace milback::radar
