// Window functions for spectral analysis. FMCW range FFTs use a Hann window
// to suppress sidelobes of strong clutter that would otherwise bury the
// node's weak backscatter return. The AP orientation sensor uses a
// rectangular one, so the time envelope it recovers is the FSA pattern and
// not the window shape.
#pragma once

#include <cstddef>
#include <vector>

namespace milback::dsp {

/// Supported window shapes.
enum class WindowType {
  kRectangular,  ///< All-ones (no windowing).
  kHann,         ///< Raised cosine; -31 dB first sidelobe.
};

/// Generates the length-`n` window. n == 0 yields an empty vector.
std::vector<double> make_window(WindowType type, std::size_t n);

/// Coherent gain of a window: sum(w)/n. Used to renormalize peak amplitudes.
double coherent_gain(const std::vector<double>& w) noexcept;

/// One window shape at one length, with the derived scalars every consumer
/// used to recompute per call. Immutable once built.
struct CachedWindow {
  std::vector<double> samples;     ///< make_window(type, n).
  std::vector<double> normalized;  ///< samples / coherent gain (peak-preserving).
  double coherent_gain_lin = 0.0;  ///< coherent_gain(samples).
};

/// Process-wide, thread-safe window cache keyed by (type, length). Returns a
/// reference to the shared immutable entry, building it on first use; the
/// reference stays valid for the program lifetime. Entries are pure
/// functions of the key, so results are identical at any worker count.
const CachedWindow& cached_window(WindowType type, std::size_t n);

}  // namespace milback::dsp
