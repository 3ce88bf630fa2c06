// Peak detection and sub-bin interpolation.
//
// FMCW range resolution with a 3 GHz sweep is c/2B = 5 cm per bin; the paper
// reports sub-5 cm mean error at 5 m, which requires interpolating the beat
// spectrum peak between bins. The node-side orientation estimator likewise
// interpolates envelope-power peaks in time.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace milback::dsp {

/// A detected local maximum.
struct Peak {
  double index = 0.0;  ///< Interpolated (fractional) sample/bin index.
  double value = 0.0;  ///< Interpolated peak height.
};

/// Index of the global maximum (0 for empty input).
std::size_t argmax(const std::vector<double>& x) noexcept;

/// Quadratic (parabolic) interpolation around integer bin `k` of `x`.
/// Falls back to the integer peak at the edges. Works on linear magnitudes.
Peak interpolate_peak(const std::vector<double>& x, std::size_t k);

/// Global maximum with parabolic refinement.
Peak max_peak(const std::vector<double>& x) noexcept;

/// All local maxima above `threshold`, separated by at least `min_distance`
/// samples, strongest first. A plateau reports its left edge.
std::vector<Peak> find_peaks(const std::vector<double>& x, double threshold,
                             std::size_t min_distance = 1);

/// The two strongest peaks at least `min_distance` apart, ordered by index
/// (used for the two envelope-power humps of the triangular chirp).
/// Returns std::nullopt if fewer than two qualifying peaks exist.
std::optional<std::pair<Peak, Peak>> two_strongest_peaks(const std::vector<double>& x,
                                                         double threshold,
                                                         std::size_t min_distance);

}  // namespace milback::dsp
