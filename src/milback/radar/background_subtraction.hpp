// Five-chirp background subtraction (Section 5.1 of the paper).
//
// The node's reflection toggles between chirps (it switches at 10 kHz while
// chirps repeat faster than the environment changes), so subtracting the
// spectra of consecutive chirps cancels static clutter but leaves the node's
// modulated return. The paper "takes the FFT of the received signal of five
// consecutive chirps, and subtracts every two pair from each other".
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "milback/radar/range_fft.hpp"

namespace milback::radar {

/// Result of background subtraction over a chirp burst.
struct SubtractionResult {
  /// Noncoherently averaged magnitude of the pairwise difference spectra —
  /// the detection statistic the range estimator peaks over.
  std::vector<double> detection_magnitude;
  /// One representative complex difference spectrum (first pair), used for
  /// phase-based AoA at the detected bin.
  std::vector<std::complex<double>> first_difference;
  std::size_t pairs = 0;  ///< Number of difference pairs formed.
};

/// Subtracts consecutive chirp spectra pairwise and averages magnitudes.
/// Requires >= 2 spectra of equal size (throws std::invalid_argument).
SubtractionResult background_subtract(
    const std::vector<std::vector<std::complex<double>>>& chirp_spectra);

/// Same, over RangeSpectrum objects (their bins are read in place).
SubtractionResult background_subtract(const std::vector<RangeSpectrum>& spectra);

}  // namespace milback::radar
