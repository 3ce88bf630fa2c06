#include "milback/dsp/smoothing.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::dsp {

OnePoleLowpass::OnePoleLowpass(double tau_samples) noexcept {
  alpha_ = tau_samples > 0.0 ? 1.0 - std::exp(-1.0 / tau_samples) : 1.0;
}

double OnePoleLowpass::step(double x) noexcept {
  y_ += alpha_ * (x - y_);
  return y_;
}

std::vector<double> OnePoleLowpass::process(const std::vector<double>& x) {
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = step(x[i]);
  MILBACK_ENSURE(y.size() == x.size(), "process: elementwise shape preserved");
  return y;
}

std::vector<double> moving_average(const std::vector<double>& x, std::size_t window) {
  require_nonzero(window, "moving_average window");
  std::vector<double> y(x.size());
  const std::ptrdiff_t half = std::ptrdiff_t(window) / 2;
  for (std::ptrdiff_t i = 0; i < std::ptrdiff_t(x.size()); ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(std::ptrdiff_t(x.size()) - 1, i + half);
    double acc = 0.0;
    for (std::ptrdiff_t k = lo; k <= hi; ++k) acc += x[std::size_t(k)];
    y[std::size_t(i)] = acc / double(hi - lo + 1);
  }
  return y;
}

}  // namespace milback::dsp
