#include "milback/radar/aoa.hpp"

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {

double offset_to_phase_rad(double offset_deg, const AoaConfig& config) noexcept {
  return 2.0 * kPi * config.baseline_m * std::sin(deg2rad(offset_deg)) /
         config.wavelength_m;
}

std::optional<double> phase_to_offset_deg(double phase_rad,
                                          const AoaConfig& config) {
  require_finite(phase_rad, "phase_rad");
  require_positive(config.baseline_m, "aoa.baseline_m");
  const double s = phase_rad * config.wavelength_m / (2.0 * kPi * config.baseline_m);
  if (std::abs(s) > 1.0) return std::nullopt;
  return rad2deg(std::asin(s));
}

std::optional<double> estimate_offset_deg(std::complex<double> rx0_peak,
                                          std::complex<double> rx1_peak,
                                          const AoaConfig& config) {
  require_positive(config.wavelength_m, "aoa.wavelength_m");
  if (std::abs(rx0_peak) < 1e-30 || std::abs(rx1_peak) < 1e-30) return std::nullopt;
  const double dphi = std::arg(rx1_peak * std::conj(rx0_peak));
  return phase_to_offset_deg(dphi, config);
}

double unambiguous_halfwidth_deg(const AoaConfig& config) {
  require_positive(config.baseline_m, "aoa.baseline_m");
  const double s = config.wavelength_m / (2.0 * config.baseline_m);
  if (s >= 1.0) return 90.0;
  return rad2deg(std::asin(s));
}

}  // namespace milback::radar
