// Physical constants, unit conversions and dB arithmetic used across MilBack.
//
// Conventions:
//   * Powers are linear watts unless the name says dBm/dB.
//   * Frequencies are Hz, times are seconds, distances are meters.
//   * Angles at API boundaries are degrees (the paper reports degrees);
//     internal trigonometry uses radians via deg2rad/rad2deg.
#pragma once

#include <cmath>
#include <numbers>

namespace milback {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;

/// Reference temperature for noise-figure arithmetic [K].
inline constexpr double kReferenceTemperatureK = 290.0;

/// Pi as double (alias to keep call sites short).
inline constexpr double kPi = std::numbers::pi;

/// Converts degrees to radians.
constexpr double deg2rad(double deg) noexcept { return deg * kPi / 180.0; }

/// Converts radians to degrees.
constexpr double rad2deg(double rad) noexcept { return rad * 180.0 / kPi; }

/// Converts a power ratio to decibels. Requires ratio > 0.
inline double lin2db(double ratio) noexcept { return 10.0 * std::log10(ratio); }

/// Converts decibels to a linear power ratio.
inline double db2lin(double db) noexcept { return std::pow(10.0, db / 10.0); }

/// Converts watts to dBm. Requires watts > 0.
inline double watt2dbm(double watts) noexcept { return 10.0 * std::log10(watts * 1e3); }

/// Converts dBm to watts.
inline double dbm2watt(double dbm) noexcept { return std::pow(10.0, dbm / 10.0) * 1e-3; }

/// Converts an amplitude (voltage) ratio to dB (20·log10).
inline double amp2db(double ratio) noexcept { return 20.0 * std::log10(ratio); }

/// Converts dB to an amplitude (voltage) ratio.
inline double db2amp(double db) noexcept { return std::pow(10.0, db / 20.0); }

/// Free-space wavelength [m] for a carrier frequency [Hz].
constexpr double wavelength(double frequency_hz) noexcept {
  return kSpeedOfLight / frequency_hz;
}

/// Thermal noise power kTB [W] over `bandwidth_hz` at temperature `temp_k`.
inline double thermal_noise_power(double bandwidth_hz,
                                  double temp_k = kReferenceTemperatureK) noexcept {
  return kBoltzmann * temp_k * bandwidth_hz;
}

/// Thermal noise power in dBm: −174 dBm/Hz + 10·log10(B) at 290 K.
inline double thermal_noise_dbm(double bandwidth_hz,
                                double temp_k = kReferenceTemperatureK) noexcept {
  return watt2dbm(thermal_noise_power(bandwidth_hz, temp_k));
}

/// Wraps an angle in degrees into [-180, 180).
double wrap_degrees(double deg);

/// Wraps a phase in radians into [-pi, pi).
double wrap_radians(double rad);

}  // namespace milback
