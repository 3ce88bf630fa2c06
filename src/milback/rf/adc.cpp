#include "milback/rf/adc.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::rf {

Adc::Adc(const AdcConfig& config) : config_(config) {
  MILBACK_REQUIRE(config_.bits >= 1 && config_.bits <= 24, "Adc: bits must be in [1, 24]");
  require_positive(config_.sample_rate_hz, "sample_rate_hz");
  require_positive(config_.full_scale_v, "full_scale_v");
}

double Adc::lsb() const noexcept {
  return config_.full_scale_v / double(1u << config_.bits);
}

double Adc::quantization_noise_power() const noexcept {
  const double q = lsb();
  return q * q / 12.0;
}

double Adc::quantize(double v) const {
  require_finite(v, "v");
  const double lo = config_.bipolar ? -config_.full_scale_v / 2.0 : 0.0;
  const double hi = config_.bipolar ? config_.full_scale_v / 2.0 : config_.full_scale_v;
  const double clipped = std::clamp(v, lo, hi);
  const double q = lsb();
  return lo + std::round((clipped - lo) / q) * q;
}

std::vector<double> Adc::sample(const std::vector<double>& x, double input_rate_hz) const {
  MILBACK_REQUIRE(input_rate_hz >= config_.sample_rate_hz,
                  "Adc::sample: input rate below ADC rate");
  const double step = input_rate_hz / config_.sample_rate_hz;
  std::vector<double> out;
  out.reserve(std::size_t(double(x.size()) / step) + 1);
  for (double pos = 0.0; pos < double(x.size()); pos += step) {
    out.push_back(quantize(x[std::size_t(pos)]));
  }
  return out;
}

}  // namespace milback::rf
