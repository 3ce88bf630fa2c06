// AP-side localization pipeline (Sections 5.1 and 9.2 of the paper).
//
// The AP transmits five sawtooth FMCW chirps (Field 2) while the node
// toggles a port between reflect and absorb. Per chirp the pipeline
// synthesizes the dechirped RX0 beat signal (node return + static clutter +
// the node's partially-modulated mirror reflection + thermal noise), takes
// the range FFT, background-subtracts consecutive chirps to cancel clutter
// and finds the modulated peak for range. For the angle it compares the
// peak-bin phase of the first chirp pair's difference across the two RX
// antennas, so RX1 needs only chirps 0 and 1.
#pragma once

#include <optional>

#include "milback/channel/backscatter_channel.hpp"
#include "milback/radar/aoa.hpp"
#include "milback/radar/background_subtraction.hpp"
#include "milback/radar/beat_synthesis.hpp"
#include "milback/radar/chirp.hpp"
#include "milback/radar/range_estimator.hpp"
#include "milback/radar/range_fft.hpp"
#include "milback/util/rng.hpp"

namespace milback::ap {

/// Localizer parameters.
struct LocalizerConfig {
  radar::ChirpConfig chirp = radar::field2_chirp();
  double beat_sample_rate_hz = 50e6;  ///< Scope capture rate at baseband.
  std::size_t n_chirps = 5;           ///< Paper's five-chirp burst.
  radar::RangeFftConfig fft{};
  radar::RangeEstimatorConfig range{};
  radar::AoaConfig aoa{};
  double slope_error_rms = 0.008;  ///< Fractional chirp-nonlinearity jitter
                                   ///< (VXG segment patching), a per-trial
                                   ///< range bias that grows with distance.
  channel::MirrorReflection mirror{};  ///< Node ground-plane reflection model.
  rf::RfSwitchConfig node_switch{};    ///< Node switch (sets reflect/absorb
                                       ///< contrast of the modulated return).
  bool reflector_aware = false;  ///< NLoS fallback (N2LoS): when the direct
                                 ///< path is severed and a wall echo
                                 ///< dominates, range on the strongest
                                 ///< indirect path and unfold the mirror
                                 ///< image back to the node position.
  double nlos_margin_db = 3.0;   ///< How far the echo must rise above the
                                 ///< blocked direct return to trigger the
                                 ///< fallback.
};

/// Per-chirp dechirped beat signals of one RX antenna across a burst.
using ChirpBeats = std::vector<std::vector<radar::cplx>>;

/// One localization fix.
struct LocalizationResult {
  bool detected = false;       ///< Whether a modulated return was found.
  double range_m = 0.0;        ///< Estimated AP-to-node distance.
  double angle_deg = 0.0;      ///< Estimated node bearing in the AP frame.
  double detection_snr_db = 0.0;  ///< Peak over subtraction-floor ratio.
  std::optional<double> aoa_offset_deg;  ///< Phase-derived offset from steering.
  double steered_azimuth_deg = 0.0;      ///< Where the horns actually pointed.
  bool nlos_fallback = false;  ///< Fix came from the reflector-aware path
                               ///< (range/angle carry the mirror-image
                               ///< correction).
  int reflector_wall = -1;     ///< Wall index used for the correction.
};

/// The AP's FMCW localization engine.
class Localizer {
 public:
  /// Builds a localizer.
  explicit Localizer(const LocalizerConfig& config = {});

  /// Runs one five-chirp localization of the node at `pose` through
  /// `channel`. `rng` drives noise, clutter drift and steering error. Each
  /// pipeline pass synthesizes and range-FFTs the n_chirps RX0 beats and RX1
  /// chirps 0 and 1 only: range comes from the background-subtracted RX0
  /// spectra, AoA from the RX0 and RX1 first differences at the detected
  /// bin. The unread RX1 chirps' noise is discarded, so the draws match a
  /// full two-antenna burst. When `rx0_sink` is set, the first
  /// (node-steered) pass's RX0 beats are moved into it after their range
  /// FFTs, so the same Field-2 burst can also feed
  /// ApOrientationSensor::estimate without being synthesized twice.
  LocalizationResult localize(const channel::BackscatterChannel& channel,
                              const channel::NodePose& pose, milback::Rng& rng,
                              ChirpBeats* rx0_sink = nullptr) const;

  /// Per-chirp beat signals at both RX antennas (they share the TX-side
  /// randomness: clutter drift, slope error).
  struct BurstPair {
    ChirpBeats rx0;  ///< Phase-reference antenna.
    ChirpBeats rx1;  ///< Baseline-offset antenna.
  };

  /// `rx1_chirps` value that synthesizes every RX1 chirp.
  static constexpr std::size_t kAllChirps = ~std::size_t{0};

  /// Builds the five-chirp beat signals for both RX antennas (exposed for
  /// the orientation sensor and for tests). `port_a_states[i]` is the node's
  /// port-A switch state during chirp i; port B absorbs throughout.
  /// `steer_amplitudes` models a burst whose horns really point at
  /// `steered_azimuth_deg` (the reflector-aware second pass at a wall
  /// bearing): path powers pay/gain the horn pattern relative to that steer.
  /// Otherwise the steer only sets the AoA phase reference.
  /// `rx1_chirps` keeps RX1 beats for the leading chirps only (rx1 holds
  /// min(rx1_chirps, chirps) beats). Each later RX1 beat's noise is still
  /// drawn and discarded in its place, so RX0 and the RX1 prefix are bitwise
  /// equal to the full burst's and `rng` ends in the same state.
  BurstPair synthesize_burst(const channel::BackscatterChannel& channel,
                             const channel::NodePose& pose,
                             const std::vector<rf::SwitchState>& port_a_states,
                             double true_slope_scale, double steered_azimuth_deg,
                             milback::Rng& rng, bool steer_amplitudes = false,
                             std::size_t rx1_chirps = kAllChirps) const;

  /// Config echo.
  const LocalizerConfig& config() const noexcept { return config_; }

 private:
  LocalizerConfig config_;
};

}  // namespace milback::ap
