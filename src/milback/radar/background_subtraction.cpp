#include "milback/radar/background_subtraction.hpp"

#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::radar {

namespace {

/// The one subtraction body: `bins(s)` reads a chirp's spectrum in place, so
/// the RangeSpectrum overload copies no bin vector.
template <typename Spectrum, typename Bins>
SubtractionResult subtract(const std::vector<Spectrum>& chirp_spectra, Bins bins) {
  MILBACK_REQUIRE(chirp_spectra.size() >= 2, "background_subtract: need >= 2 chirp spectra");
  const std::size_t n = bins(chirp_spectra.front()).size();
  for (const auto& s : chirp_spectra) {
    MILBACK_REQUIRE(bins(s).size() == n, "background_subtract: spectra size mismatch");
  }

  SubtractionResult out;
  out.detection_magnitude.assign(n, 0.0);
  out.pairs = chirp_spectra.size() - 1;
  out.first_difference.resize(n);
  for (std::size_t p = 0; p + 1 < chirp_spectra.size(); ++p) {
    const auto& a = bins(chirp_spectra[p]);
    const auto& b = bins(chirp_spectra[p + 1]);
    for (std::size_t k = 0; k < n; ++k) {
      const std::complex<double> diff = b[k] - a[k];
      out.detection_magnitude[k] += std::abs(diff);
      if (p == 0) out.first_difference[k] = diff;
    }
  }
  const double inv = 1.0 / double(out.pairs);
  for (auto& v : out.detection_magnitude) v *= inv;
  return out;
}

}  // namespace

SubtractionResult background_subtract(
    const std::vector<std::vector<std::complex<double>>>& chirp_spectra) {
  return subtract(chirp_spectra, [](const auto& s) -> const auto& { return s; });
}

SubtractionResult background_subtract(const std::vector<RangeSpectrum>& spectra) {
  return subtract(spectra, [](const RangeSpectrum& s) -> const auto& { return s.bins; });
}

}  // namespace milback::radar
