// Seeded R7 violation, staged as src/milback/fix/: a phasor built from a
// cos/sin pair per sample instead of dsp::PhasorOscillator.
#include <cmath>
#include <complex>
#include <vector>

namespace milback::fix {

std::vector<std::complex<double>> tone(std::size_t n, double step_rad) {
  std::vector<std::complex<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = step_rad * double(i);
    out[i] = std::complex<double>(std::cos(phase), std::sin(phase));  // lint-expect: R7
  }
  return out;
}

}  // namespace milback::fix
