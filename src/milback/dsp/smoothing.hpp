// The two smoothers the simulator runs: a single-pole low-pass IIR for the
// RC-limited rise and fall of the node's envelope detectors
// (rf/envelope_detector), and a centered moving average over the AP
// orientation profiler's envelope power (radar/spectrum_profile).
#pragma once

#include <cstddef>
#include <vector>

namespace milback::dsp {

/// Single-pole low-pass IIR: models the RC-limited rise/fall time of an
/// envelope detector. `tau_samples` is the time constant in samples.
class OnePoleLowpass {
 public:
  /// tau_samples <= 0 makes the filter a pass-through.
  explicit OnePoleLowpass(double tau_samples) noexcept;

  /// Processes one sample.
  double step(double x) noexcept;

  /// Filters a whole vector (stateful across the call).
  std::vector<double> process(const std::vector<double>& x);

  /// Resets internal state to `y0`.
  void reset(double y0 = 0.0) noexcept { y_ = y0; }

  /// Smoothing coefficient alpha in y += alpha*(x-y).
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_ = 1.0;
  double y_ = 0.0;
};

/// Centered moving average of width `window` (window == 0 throws; width is
/// clamped at the edges).
std::vector<double> moving_average(const std::vector<double>& x, std::size_t window);

}  // namespace milback::dsp
