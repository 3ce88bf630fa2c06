#include "milback/dsp/peak.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::dsp {

std::size_t argmax(const std::vector<double>& x) noexcept {
  if (x.empty()) return 0;
  return std::size_t(std::max_element(x.begin(), x.end()) - x.begin());
}

namespace {

// Parabolic interpolation around x[k], for a non-empty x and k < x.size().
Peak interpolate_at(const std::vector<double>& x, std::size_t k) noexcept {
  if (k == 0 || k + 1 >= x.size()) return {double(k), x[k]};
  const double a = x[k - 1], b = x[k], c = x[k + 1];
  const double denom = a - 2.0 * b + c;
  if (std::abs(denom) < 1e-30) return {double(k), b};
  double delta = 0.5 * (a - c) / denom;
  delta = std::clamp(delta, -0.5, 0.5);
  const double value = b - 0.25 * (a - c) * delta;
  return {double(k) + delta, value};
}

}  // namespace

Peak interpolate_peak(const std::vector<double>& x, std::size_t k) {
  if (x.empty()) return {};
  MILBACK_REQUIRE(k < x.size(), "interpolate_peak: peak index within x");
  return interpolate_at(x, k);
}

// argmax is always in range, so max_peak skips interpolate_peak's check.
Peak max_peak(const std::vector<double>& x) noexcept {
  if (x.empty()) return {};
  return interpolate_at(x, argmax(x));
}

std::vector<Peak> find_peaks(const std::vector<double>& x, double threshold,
                             std::size_t min_distance) {
  require_finite(threshold, "threshold");
  std::vector<Peak> peaks;
  if (x.size() < 3) return peaks;
  if (min_distance == 0) min_distance = 1;
  for (std::size_t i = 1; i + 1 < x.size(); ++i) {
    if (x[i] >= threshold && x[i] > x[i - 1] && x[i] >= x[i + 1]) {
      peaks.push_back(interpolate_peak(x, i));
    }
  }
  // Strongest-first non-maximum suppression by min_distance.
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& p, const Peak& q) { return p.value > q.value; });
  std::vector<Peak> kept;
  for (const auto& p : peaks) {
    const bool clash = std::any_of(kept.begin(), kept.end(), [&](const Peak& q) {
      return std::abs(q.index - p.index) < double(min_distance);
    });
    if (!clash) kept.push_back(p);
  }
  return kept;
}

std::optional<std::pair<Peak, Peak>> two_strongest_peaks(const std::vector<double>& x,
                                                         double threshold,
                                                         std::size_t min_distance) {
  require_finite(threshold, "threshold");
  auto peaks = find_peaks(x, threshold, min_distance);
  if (peaks.size() < 2) return std::nullopt;
  Peak first = peaks[0], second = peaks[1];
  if (first.index > second.index) std::swap(first, second);
  return std::make_pair(first, second);
}

}  // namespace milback::dsp
