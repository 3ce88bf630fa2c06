// Uniform linear array mathematics shared by the FSA and baseline antennas.
#pragma once

#include <cstddef>

namespace milback::antenna {

/// Normalized amplitude array factor |sin(N psi/2) / (N sin(psi/2))| of a
/// uniform N-element array, where `psi` is the inter-element phase
/// progression in radians. Returns 1.0 at psi = 0 (and grating repeats).
double uniform_array_factor(double psi, std::size_t n);

/// Broadside directivity of a uniform array with half-wavelength spacing,
/// in dB (~10 log10 N).
double array_directivity_db(std::size_t n) noexcept;

/// Single-element pattern gain in dB relative to its boresight, modeled as
/// cos^q(theta): 10*q*log10(cos theta), clamped at -40 dB past 90 degrees.
double element_pattern_db(double theta_deg, double q);

/// Half-power beamwidth [deg] of a uniform broadside array of N elements at
/// spacing `d_over_lambda`, scanned to `theta_deg` (beam broadening 1/cos).
double beamwidth_deg(std::size_t n, double d_over_lambda, double theta_deg);

}  // namespace milback::antenna
