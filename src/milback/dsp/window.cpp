#include "milback/dsp/window.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "milback/core/contract.hpp"
#include "milback/obs/registry.hpp"

namespace milback::dsp {

namespace {
constexpr double kTau = 2.0 * std::numbers::pi;
}

std::vector<double> make_window(WindowType type, std::size_t n) {
  std::vector<double> w(n, 1.0);
  if (n <= 1) return w;
  const double denom = double(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = double(i) / denom;
    switch (type) {
      case WindowType::kRectangular:
        w[i] = 1.0;
        break;
      case WindowType::kHann:
        w[i] = 0.5 - 0.5 * std::cos(kTau * t);
        break;
    }
  }
  MILBACK_ENSURE(w.size() == n, "make_window: one coefficient per sample");
  return w;
}

// milback-analyze: no-contract(total over any window; empty input is defined to return 0)
double coherent_gain(const std::vector<double>& w) noexcept {
  if (w.empty()) return 0.0;
  double sum = 0.0;
  for (double v : w) sum += v;
  return sum / double(w.size());
}

const CachedWindow& cached_window(WindowType type, std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::uint64_t, std::unique_ptr<const CachedWindow>> cache;
  // Window lengths are sample counts per chirp/burst — far below 2^56.
  const std::uint64_t key =
      (std::uint64_t(type) << 56) | (std::uint64_t(n) & ((1ULL << 56) - 1));
  static const obs::Counter hits = obs::Registry::global().counter("dsp.window.hits");
  static const obs::Counter misses =
      obs::Registry::global().counter("dsp.window.misses");
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[key];
  if (slot) {
    hits.add();
  } else {
    misses.add();
  }
  if (!slot) {
    auto entry = std::make_unique<CachedWindow>();
    entry->samples = make_window(type, n);
    entry->coherent_gain_lin = coherent_gain(entry->samples);
    entry->normalized = entry->samples;
    if (entry->coherent_gain_lin > 0.0) {
      for (double& v : entry->normalized) v /= entry->coherent_gain_lin;
    }
    slot = std::move(entry);
  }
  MILBACK_ENSURE(slot->samples.size() == n, "cached_window: cached length matches request");
  return *slot;
}

}  // namespace milback::dsp
