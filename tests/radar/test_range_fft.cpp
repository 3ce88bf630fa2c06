// Range FFT tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/peak.hpp"
#include "milback/radar/beat_synthesis.hpp"
#include "milback/radar/range_fft.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {
namespace {

TEST(RangeFft, BinRangeMappingRoundTrip) {
  RangeSpectrum s;
  s.bins.resize(1024);
  s.fs = 50e6;
  s.slope_hz_per_s = field2_chirp().slope_hz_per_s();
  for (double r : {0.5, 2.0, 5.0, 9.0}) {
    EXPECT_NEAR(s.bin_to_range_m(s.range_to_bin(r)), r, 1e-9);
  }
  EXPECT_DOUBLE_EQ(s.bin_to_range_m(0.0), 0.0);
}

TEST(RangeFft, PeakLandsAtTargetRange) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  const double range = 3.7;
  PathContribution p{.delay_s = 2.0 * range / kSpeedOfLight, .amplitude = 1.0};
  Rng rng(1);
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);
  const auto spec = range_fft(beat, fs, chirp);
  const auto mags = dsp::magnitude_spectrum(spec.bins);
  std::vector<double> pos(mags.begin(), mags.begin() + std::ptrdiff_t(spec.usable_bins()));
  const auto peak = dsp::max_peak(pos);
  EXPECT_NEAR(spec.bin_to_range_m(peak.index), range, 0.02);
}

TEST(RangeFft, WindowRenormalizationKeepsPeakAmplitude) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  PathContribution p{.delay_s = 2.0 * 4.0 / kSpeedOfLight, .amplitude = 0.5};
  Rng rng(2);
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);

  const auto hann = range_fft(beat, fs, chirp, {.window = dsp::WindowType::kHann});
  const auto rect = range_fft(beat, fs, chirp, {.window = dsp::WindowType::kRectangular});
  const auto m_hann = dsp::magnitude_spectrum(hann.bins);
  const auto m_rect = dsp::magnitude_spectrum(rect.bins);
  const double p_hann = dsp::max_peak(m_hann).value;
  const double p_rect = dsp::max_peak(m_rect).value;
  // Coherent-gain renormalization keeps peak heights comparable across
  // windows (within the Hann scalloping tolerance).
  EXPECT_NEAR(p_hann / p_rect, 1.0, 0.15);
}

TEST(RangeFft, HannSuppressesLeakageSkirts) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  // Strong reflector; measure spectrum 20 bins away from its peak.
  PathContribution p{.delay_s = 2.0 * 5.0 / kSpeedOfLight, .amplitude = 1.0};
  Rng rng(3);
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);
  const auto hann = range_fft(beat, fs, chirp, {.window = dsp::WindowType::kHann});
  const auto rect = range_fft(beat, fs, chirp, {.window = dsp::WindowType::kRectangular});
  const auto mh = dsp::magnitude_spectrum(hann.bins);
  const auto mr = dsp::magnitude_spectrum(rect.bins);
  const auto kh = dsp::argmax(std::vector<double>(mh.begin(), mh.begin() + 512));
  EXPECT_LT(mh[kh + 20] / mh[kh], mr[kh + 20] / mr[kh]);
}

TEST(RangeFft, ExplicitFftSizeRespected) {
  const auto chirp = field2_chirp();
  std::vector<std::complex<double>> beat(900, {1.0, 0.0});
  const auto spec = range_fft(beat, 50e6, chirp, {.fft_size = 4096});
  EXPECT_EQ(spec.bins.size(), 4096u);
}

TEST(RangeFft, DefaultPadsToNextPow2) {
  const auto chirp = field2_chirp();
  std::vector<std::complex<double>> beat(900, {1.0, 0.0});
  const auto spec = range_fft(beat, 50e6, chirp);
  EXPECT_EQ(spec.bins.size(), 1024u);
}

TEST(RangeFft, RejectsNonPow2FftSize) {
  const auto chirp = field2_chirp();
  std::vector<std::complex<double>> beat(900, {1.0, 0.0});
  EXPECT_THROW(range_fft(beat, 50e6, chirp, {.fft_size = 1000}),
               std::invalid_argument);
}

TEST(RangeFft, RejectsFftSizeSmallerThanInput) {
  const auto chirp = field2_chirp();
  std::vector<std::complex<double>> beat(900, {1.0, 0.0});
  // 512 is a power of two but would silently drop windowed samples.
  EXPECT_THROW(range_fft(beat, 50e6, chirp, {.fft_size = 512}),
               std::invalid_argument);
}

}  // namespace
}  // namespace milback::radar
