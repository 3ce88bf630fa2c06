#include "milback/rf/envelope_detector.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/dsp/smoothing.hpp"
#include "milback/util/units.hpp"

namespace milback::rf {

EnvelopeDetector::EnvelopeDetector(const EnvelopeDetectorConfig& config)
    : config_(config) {
  require_positive(config_.responsivity_v_per_w, "responsivity_v_per_w");
  require_positive(config_.video_bandwidth_hz, "video_bandwidth_hz");
  require_positive(config_.max_output_v, "max_output_v");
  require_non_negative(config_.output_noise_v_per_rthz, "output_noise_v_per_rthz");
}

double EnvelopeDetector::output_voltage(double input_power_w) const noexcept {
  const double v = config_.responsivity_v_per_w * std::max(input_power_w, 0.0);
  return std::min(v, config_.max_output_v);
}

double EnvelopeDetector::input_power_for_voltage(double v) const noexcept {
  return std::max(v, 0.0) / config_.responsivity_v_per_w;
}

std::vector<double> EnvelopeDetector::detect(const std::vector<double>& input_power_w,
                                             double fs, Rng& rng) const {
  require_positive(fs, "fs");
  // One-pole video filter: tau = 1 / (2*pi*f3dB) seconds -> samples.
  const double tau_samples = fs / (2.0 * kPi * config_.video_bandwidth_hz);
  dsp::OnePoleLowpass lpf(tau_samples);
  // Noise measured in the effective noise bandwidth of the video filter,
  // clamped by the simulation Nyquist rate.
  const double enbw = std::min(kPi / 2.0 * config_.video_bandwidth_hz, fs / 2.0);
  const double sigma = config_.output_noise_v_per_rthz * std::sqrt(enbw);
  std::vector<double> out(input_power_w.size());
  rng.fill_gaussian(out.data(), out.size(), sigma);  // per-sample noise, in order
  for (std::size_t i = 0; i < input_power_w.size(); ++i) {
    const double clean = output_voltage(input_power_w[i]);
    const double filtered = lpf.step(clean);
    out[i] = std::clamp(filtered + out[i], 0.0, config_.max_output_v);
  }
  return out;
}

double EnvelopeDetector::noise_power_v2(double bw_hz) const noexcept {
  const double d = config_.output_noise_v_per_rthz;
  return d * d * std::max(bw_hz, 0.0);
}

double EnvelopeDetector::rise_time_s() const noexcept {
  return 0.35 / config_.video_bandwidth_hz;
}

double EnvelopeDetector::max_symbol_rate_hz() const noexcept {
  // Require the symbol period to cover one rise and one fall.
  return 1.0 / (2.0 * rise_time_s());
}

double EnvelopeDetector::residual_reflection() const noexcept {
  return db2lin(-config_.input_return_loss_db);
}

}  // namespace milback::rf
