#include "milback/antenna/fsa.hpp"

#include <algorithm>
#include <cmath>

#include "milback/antenna/array_factor.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::antenna {

DualPortFsa::DualPortFsa(const FsaConfig& config) : config_(config) {
  MILBACK_REQUIRE(config_.n_elements >= 2, "DualPortFsa: need >= 2 elements");
  require_positive(config_.center_frequency_hz, "center_frequency_hz");
  MILBACK_REQUIRE(config_.mode_number >= 1, "DualPortFsa: mode number must be >= 1");
  require_positive(config_.min_frequency_hz, "min_frequency_hz");
  MILBACK_REQUIRE(config_.max_frequency_hz > config_.min_frequency_hz,
                  "DualPortFsa: empty operating band");
  require_finite(config_.element_gain_dbi, "element_gain_dbi");
  require_finite(config_.efficiency_db, "efficiency_db");
  require_positive(config_.element_pattern_q, "element_pattern_q");
  spacing_m_ = wavelength(config_.center_frequency_hz) / 2.0;
  line_delay_s_ = double(config_.mode_number) / config_.center_frequency_hz;
  peak_gain_dbi_ = array_directivity_db(config_.n_elements) +
                   config_.element_gain_dbi + config_.efficiency_db;
  MILBACK_ENSURE(spacing_m_ > 0.0 && line_delay_s_ > 0.0,
                 "DualPortFsa: derived geometry must be positive");
}

std::optional<double> DualPortFsa::beam_angle_deg(FsaPort port, double f_hz) const {
  require_finite(f_hz, "f_hz");
  if (f_hz <= 0.0) return std::nullopt;
  const double fc = config_.center_frequency_hz;
  const double m = double(config_.mode_number);
  // sin(theta_A) = (c / (f d)) (f tau - m) with d = c/(2 fc), tau = m/fc.
  const double sin_theta_a = (2.0 * fc / f_hz) * (f_hz * line_delay_s_ - m);
  const double s = port == FsaPort::kA ? sin_theta_a : -sin_theta_a;
  if (std::abs(s) > 1.0) return std::nullopt;
  return rad2deg(std::asin(s));
}

std::optional<double> DualPortFsa::beam_frequency_hz(FsaPort port,
                                                     double theta_deg) const {
  require_finite(theta_deg, "theta_deg");
  const double fc = config_.center_frequency_hz;
  const double m = double(config_.mode_number);
  const double s =
      port == FsaPort::kA ? std::sin(deg2rad(theta_deg)) : -std::sin(deg2rad(theta_deg));
  // Invert sin(theta) = 2 m - 2 fc m / f  ->  f = 2 fc m / (2 m - sin(theta)).
  const double denom = 2.0 * m - s;
  if (denom <= 0.0) return std::nullopt;
  const double f = 2.0 * fc * m / denom;
  // Small tolerance so band-edge angles invert to the band-edge frequency
  // instead of falling out by a rounding epsilon.
  const double slack = 1e4;
  if (f < config_.min_frequency_hz - slack || f > config_.max_frequency_hz + slack) {
    return std::nullopt;
  }
  return std::clamp(f, config_.min_frequency_hz, config_.max_frequency_hz);
}

double DualPortFsa::psi(FsaPort port, double f_hz, double theta_deg) const noexcept {
  const double k = 2.0 * kPi * f_hz / kSpeedOfLight;
  const double spatial = k * spacing_m_ * std::sin(deg2rad(theta_deg));
  const double line = 2.0 * kPi * f_hz * line_delay_s_;
  return port == FsaPort::kA ? spatial - line : spatial + line;
}

double DualPortFsa::gain_dbi(FsaPort port, double f_hz, double theta_deg) const {
  require_finite(f_hz, "f_hz");
  require_finite(theta_deg, "theta_deg");
  const double af = uniform_array_factor(psi(port, f_hz, theta_deg), config_.n_elements);
  const double pattern_db = amp2db(std::max(af, 1e-9)) +
                            element_pattern_db(theta_deg, config_.element_pattern_q);
  // Diffuse scatter floor keeps deep array-factor nulls from predicting
  // unphysical isolation (fabricated boards never null below ~-26 dB).
  const double rel_db = std::max(pattern_db, config_.sidelobe_floor_db);
  return peak_gain_dbi_ + rel_db;
}

double DualPortFsa::gain_linear(FsaPort port, double f_hz, double theta_deg) const {
  return db2lin(gain_dbi(port, f_hz, theta_deg));
}

double DualPortFsa::beamwidth_deg(double f_hz) const {
  require_finite(f_hz, "f_hz");
  const double theta = beam_angle_deg(FsaPort::kA, f_hz).value_or(0.0);
  const double d_over_lambda = spacing_m_ / wavelength(f_hz);
  return antenna::beamwidth_deg(config_.n_elements, d_over_lambda, theta);
}

std::optional<std::pair<double, double>> DualPortFsa::carrier_pair_for_angle(
    double theta_deg) const {
  require_finite(theta_deg, "theta_deg");
  const auto fa = beam_frequency_hz(FsaPort::kA, theta_deg);
  const auto fb = beam_frequency_hz(FsaPort::kB, theta_deg);
  if (!fa || !fb) return std::nullopt;
  return std::make_pair(*fa, *fb);
}

bool DualPortFsa::normal_incidence(double theta_deg, double min_separation_hz) const {
  require_finite(theta_deg, "theta_deg");
  require_non_negative(min_separation_hz, "min_separation_hz");
  const auto pair = carrier_pair_for_angle(theta_deg);
  if (!pair) return false;
  return std::abs(pair->first - pair->second) < min_separation_hz;
}

std::pair<double, double> DualPortFsa::scan_range_deg() const {
  const auto lo = beam_angle_deg(FsaPort::kA, config_.min_frequency_hz);
  const auto hi = beam_angle_deg(FsaPort::kA, config_.max_frequency_hz);
  return {lo.value_or(-90.0), hi.value_or(90.0)};
}

}  // namespace milback::antenna
