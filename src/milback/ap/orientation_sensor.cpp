#include "milback/ap/orientation_sensor.hpp"

#include "milback/core/contract.hpp"
#include "milback/radar/spectrum_profile.hpp"

namespace milback::ap {

ApOrientationSensor::ApOrientationSensor(const LocalizerConfig& radar,
                                         const OrientationSensorConfig& config)
    : config_(config), localizer_([&] {
        LocalizerConfig lc = radar;
        lc.fft.window = dsp::WindowType::kRectangular;
        return lc;
      }()) {}

ApOrientationResult ApOrientationSensor::estimate(
    const channel::BackscatterChannel& channel, const channel::NodePose& pose,
    milback::Rng& rng) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");

  const auto& lc = localizer_.config();
  const double steered =
      pose.azimuth_deg + rng.gaussian(0.0, channel.config().steering_error_sigma_deg);
  const double slope_scale = 1.0 + rng.gaussian(0.0, lc.slope_error_rms);

  std::vector<rf::SwitchState> states(lc.n_chirps);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = (i % 2 == 0) ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
  }

  // The sensor reads RX0 only; RX1's noise is discarded to keep the draws.
  const auto burst = localizer_.synthesize_burst(channel, pose, states, slope_scale,
                                                 steered, rng, /*steer_amplitudes=*/false,
                                                 /*rx1_chirps=*/0);
  return estimate(channel, burst.rx0, rng);
}

ApOrientationResult ApOrientationSensor::estimate(
    const channel::BackscatterChannel& channel, const ChirpBeats& rx0_beats,
    milback::Rng& rng) const {
  MILBACK_REQUIRE(rx0_beats.size() >= 2,
                  "ApOrientationSensor: background subtraction needs >= 2 chirps");
  MILBACK_REQUIRE(rx0_beats[0].size() == rx0_beats[1].size(),
                  "ApOrientationSensor: chirp length mismatch");
  ApOrientationResult result;

  // The profile reads one difference spectrum: chirp 1 minus chirp 0.
  const auto& lc = localizer_.config();
  const auto first =
      radar::range_fft(rx0_beats[0], lc.beat_sample_rate_hz, lc.chirp, lc.fft).bins;
  auto difference =
      radar::range_fft(rx0_beats[1], lc.beat_sample_rate_hz, lc.chirp, lc.fft).bins;
  for (std::size_t k = 0; k < difference.size(); ++k) difference[k] -= first[k];

  const auto profile = radar::reflected_power_profile(
      difference, lc.beat_sample_rate_hz, lc.chirp, config_.profile);
  auto f_peak = profile.peak_frequency_hz();
  if (!f_peak) return result;
  // Chirp-vs-FSA frequency calibration tolerance (per trial).
  *f_peak += rng.gaussian(0.0, config_.frequency_jitter_hz);

  const auto angle = channel.fsa().beam_angle_deg(antenna::FsaPort::kA, *f_peak);
  if (!angle) return result;

  result.valid = true;
  result.f_peak_hz = *f_peak;
  result.orientation_deg = *angle;
  return result;
}

}  // namespace milback::ap
