#include "milback/radar/chirp.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {

double ChirpConfig::slope_hz_per_s() const noexcept {
  const double sweep_time =
      shape == ChirpShape::kTriangular ? duration_s / 2.0 : duration_s;
  return bandwidth_hz / sweep_time;
}

double ChirpConfig::frequency_at(double t) const {
  require_finite(t, "t");
  const double tt = std::clamp(t, 0.0, duration_s);
  if (shape == ChirpShape::kSawtooth) {
    return start_frequency_hz + slope_hz_per_s() * tt;
  }
  const double half = duration_s / 2.0;
  if (tt <= half) return start_frequency_hz + slope_hz_per_s() * tt;
  return end_frequency_hz() - slope_hz_per_s() * (tt - half);
}

std::size_t ChirpConfig::crossings(double f, double t_out[2]) const {
  require_finite(f, "f");
  if (f < start_frequency_hz || f > end_frequency_hz()) return 0;
  const double s = slope_hz_per_s();
  if (shape == ChirpShape::kSawtooth) {
    t_out[0] = (f - start_frequency_hz) / s;
    return 1;
  }
  const double up = (f - start_frequency_hz) / s;
  t_out[0] = up;
  t_out[1] = duration_s - up;
  return t_out[1] > t_out[0] ? 2u : 1u;
}

double ChirpConfig::range_resolution_m() const noexcept {
  return kSpeedOfLight / (2.0 * bandwidth_hz);
}

double ChirpConfig::beat_frequency_hz(double tau_s) const noexcept {
  return slope_hz_per_s() * tau_s;
}

double ChirpConfig::max_range_m(double fs) const noexcept {
  // Beat must stay below Nyquist: f_b = slope * 2R/c < fs/2.
  return fs / 2.0 * kSpeedOfLight / (2.0 * slope_hz_per_s());
}

ChirpConfig field1_chirp() noexcept {
  return ChirpConfig{ChirpShape::kTriangular, 26.5e9, 3e9, 45e-6};
}

ChirpConfig field2_chirp() noexcept {
  return ChirpConfig{ChirpShape::kSawtooth, 26.5e9, 3e9, 18e-6};
}

}  // namespace milback::radar
