#include "milback/antenna/array_factor.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::antenna {

double uniform_array_factor(double psi, std::size_t n) {
  require_finite(psi, "psi");
  if (n == 0) return 0.0;
  if (n == 1) return 1.0;
  const double half = psi / 2.0;
  const double denom = double(n) * std::sin(half);
  if (std::abs(denom) < 1e-12) return 1.0;  // psi at a grating peak
  return std::abs(std::sin(double(n) * half) / denom);
}

double array_directivity_db(std::size_t n) noexcept {
  if (n == 0) return -300.0;
  return 10.0 * std::log10(double(n));
}

double element_pattern_db(double theta_deg, double q) {
  require_finite(theta_deg, "theta_deg");
  require_positive(q, "q");
  const double theta = std::abs(theta_deg);
  if (theta >= 89.0) return -40.0;
  const double c = std::cos(deg2rad(theta));
  return std::max(10.0 * q * std::log10(c), -40.0);
}

double beamwidth_deg(std::size_t n, double d_over_lambda, double theta_deg) {
  require_finite(theta_deg, "theta_deg");
  if (n == 0 || d_over_lambda <= 0.0) return 180.0;
  const double broadside = 0.886 / (double(n) * d_over_lambda);  // radians
  const double cos_scan = std::max(std::cos(deg2rad(theta_deg)), 0.2);
  return std::min(rad2deg(broadside / cos_scan), 180.0);
}

}  // namespace milback::antenna
