#include "milback/radar/range_fft.hpp"

#include "milback/core/contract.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {

double RangeSpectrum::bin_to_range_m(double k) const noexcept {
  const double f_beat = k * fs / double(bins.size());
  return f_beat * kSpeedOfLight / (2.0 * slope_hz_per_s);
}

double RangeSpectrum::range_to_bin(double r) const noexcept {
  const double f_beat = 2.0 * r * slope_hz_per_s / kSpeedOfLight;
  return f_beat * double(bins.size()) / fs;
}

RangeSpectrum range_fft(const std::vector<std::complex<double>>& beat, double fs,
                        const ChirpConfig& chirp, const RangeFftConfig& config) {
  RangeSpectrum out;
  out.fs = fs;
  out.slope_hz_per_s = chirp.slope_hz_per_s();

  // An explicit fft_size must actually hold the windowed signal; the legacy
  // behavior silently padded past a too-small request, which made the
  // configured resolution a lie.
  if (config.fft_size != 0) {
    MILBACK_REQUIRE(dsp::is_pow2(config.fft_size),
                    "range_fft: fft_size must be a power of two");
    MILBACK_REQUIRE(config.fft_size >= beat.size(),
                    "range_fft: fft_size smaller than the windowed signal");
  }
  const std::size_t n =
      config.fft_size ? config.fft_size : dsp::next_pow2(beat.size());

  // Cached peak-normalized window, then execute the shared plan in place on
  // the output buffer — one allocation (the spectrum itself), no per-call
  // window or twiddle recomputation.
  const auto& w = dsp::cached_window(config.window, beat.size());
  out.bins.assign(n, {0.0, 0.0});
  for (std::size_t i = 0; i < beat.size(); ++i) {
    out.bins[i] = beat[i] * w.normalized[i];
  }
  dsp::fft_plan(n).forward(out.bins.data());
  return out;
}

}  // namespace milback::radar
