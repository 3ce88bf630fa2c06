// Clean control for R7, staged as src/milback/fix/: cos and sin that build
// no phasor pair, and std::polar for a one-off rotation.
#include <cmath>
#include <complex>

namespace milback::fix {

double mixing_gain(double a_rad, double b_rad) {
  const double c = std::cos(a_rad);
  const double s = std::sin(b_rad);
  return c * s + std::cos(a_rad) * std::sin(b_rad);
}

std::complex<double> rotate(double phase_rad) { return std::polar(1.0, phase_rad); }

}  // namespace milback::fix
