// Angle-of-arrival estimation (Section 9.2 of the paper): "the AP compares
// the phase of the node's baseband signal at two AP antennas".
//
// The two RX horns are separated by a baseline b; a wavefront arriving
// `theta` off the steering direction accrues a phase difference
// dphi = 2 pi b sin(theta) / lambda. With b = 3.5 cm (adjacent horn
// apertures at 28 GHz) the unambiguous window is ~ +-8.8 degrees — wide
// enough because the AP first mechanically steers to the node within a
// couple of degrees; the phase comparison then refines the estimate.
#pragma once

#include <complex>
#include <optional>

namespace milback::radar {

/// AoA estimator parameters.
struct AoaConfig {
  double baseline_m = 0.035;       ///< RX antenna separation.
  double wavelength_m = 0.010707;  ///< Carrier wavelength (28 GHz).
  double calibration_sigma_rad = 0.7;  ///< Residual phase-calibration error
                                        ///< (applied by the simulation when
                                        ///< producing the two channels).
};

/// Phase difference [rad] produced by an arrival `offset_deg` from boresight.
double offset_to_phase_rad(double offset_deg, const AoaConfig& config) noexcept;

/// Inverts the interferometer equation. Returns std::nullopt when the phase
/// implies |sin| > 1 (should not happen inside the unambiguous window).
std::optional<double> phase_to_offset_deg(double phase_rad, const AoaConfig& config);

/// Estimates the arrival offset [deg] from the complex peak-bin values of
/// the two RX channels (phase of the cross product).
std::optional<double> estimate_offset_deg(std::complex<double> rx0_peak,
                                          std::complex<double> rx1_peak,
                                          const AoaConfig& config);

/// Half-width of the unambiguous angle window [deg].
double unambiguous_halfwidth_deg(const AoaConfig& config);

}  // namespace milback::radar
