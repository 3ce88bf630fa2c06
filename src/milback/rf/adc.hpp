// ADC model. Two instances exist in the system:
//   * the AP's scope front end (DSOX3102G stand-in): high rate, 8-10 bits;
//   * the node MCU's ADC (MSP430 stand-in): 1 MS/s, 12 bits.
// The model applies sampling-rate decimation, full-scale clipping and
// uniform quantization.
#pragma once

#include <cstddef>
#include <vector>

namespace milback::rf {

/// ADC parameters.
struct AdcConfig {
  double sample_rate_hz = 1e6;   ///< Output sample rate.
  unsigned bits = 12;            ///< Resolution.
  double full_scale_v = 3.3;     ///< Input range [0, full_scale] volts.
  bool bipolar = false;          ///< If true, range is [-fs/2, +fs/2].
};

/// Sampling + quantization stage.
class Adc {
 public:
  /// Validates parameters (throws std::invalid_argument for 0 bits or
  /// non-positive rate/full-scale).
  explicit Adc(const AdcConfig& config);

  /// Quantizes one voltage to the nearest code's voltage (clips at range).
  double quantize(double v) const;

  /// Samples a waveform given at `input_rate_hz` down to the ADC rate
  /// (nearest-sample decimation; input rate must be >= ADC rate) and
  /// quantizes each sample.
  std::vector<double> sample(const std::vector<double>& x, double input_rate_hz) const;

  /// Least significant bit size in volts.
  double lsb() const noexcept;

  /// Quantization noise power (LSB^2 / 12) in V^2.
  double quantization_noise_power() const noexcept;

  /// Config echo.
  const AdcConfig& config() const noexcept { return config_; }

 private:
  AdcConfig config_;
};

}  // namespace milback::rf
