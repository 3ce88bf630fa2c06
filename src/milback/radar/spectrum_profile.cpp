#include "milback/radar/spectrum_profile.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/peak.hpp"
#include "milback/dsp/smoothing.hpp"

namespace milback::radar {

std::optional<double> FrequencyProfile::peak_frequency_hz() const {
  if (power.size() < 3 || frequency_hz.size() != power.size()) return std::nullopt;
  const auto peak = dsp::max_peak(power);
  if (peak.value <= 0.0) return std::nullopt;
  // Interpolate the frequency axis at the fractional peak index.
  const double idx = std::clamp(peak.index, 0.0, double(power.size() - 1));
  const auto lo = std::min(std::size_t(idx), power.size() - 2);
  const double frac = idx - double(lo);
  return frequency_hz[lo] * (1.0 - frac) + frequency_hz[lo + 1] * frac;
}

FrequencyProfile reflected_power_profile(
    const std::vector<std::complex<double>>& difference_spectrum, double fs,
    const ChirpConfig& chirp, const ProfileConfig& config) {
  require_positive(fs, "fs");
  FrequencyProfile out;
  if (difference_spectrum.empty() || config.n_bins < 3) return out;

  // Back to the time domain: the difference spectrum's IFFT is the node's
  // modulated return over the chirp (clutter already cancelled).
  auto time_domain = difference_spectrum;
  dsp::fft_plan(time_domain.size()).inverse(time_domain);
  // Only the span covered by real samples maps to sweep time; the FFT was
  // zero-padded beyond the chirp, so restrict to the chirp extent.
  const std::size_t n_chirp =
      std::min(time_domain.size(), std::size_t(chirp.duration_s * fs));
  std::vector<double> envelope(n_chirp);
  for (std::size_t i = 0; i < n_chirp; ++i) envelope[i] = std::norm(time_domain[i]);
  if (config.smooth_window > 1) {
    envelope = dsp::moving_average(envelope, config.smooth_window);
  }

  // Accumulate envelope power into frequency bins across the sweep.
  out.frequency_hz.resize(config.n_bins);
  out.power.assign(config.n_bins, 0.0);
  std::vector<std::size_t> counts(config.n_bins, 0);
  const double f0 = chirp.start_frequency_hz;
  const double bw = chirp.bandwidth_hz;
  for (std::size_t b = 0; b < config.n_bins; ++b) {
    out.frequency_hz[b] = f0 + (double(b) + 0.5) * bw / double(config.n_bins);
  }
  for (std::size_t i = 0; i < n_chirp; ++i) {
    const double t = double(i) / fs;
    const double f = chirp.frequency_at(t);
    const double pos = (f - f0) / bw * double(config.n_bins);
    const auto b = std::min(std::size_t(std::max(pos, 0.0)), config.n_bins - 1);
    out.power[b] += envelope[i];
    counts[b]++;
  }
  for (std::size_t b = 0; b < config.n_bins; ++b) {
    if (counts[b] > 0) out.power[b] /= double(counts[b]);
  }
  return out;
}

}  // namespace milback::radar
