#include "milback/sim/accumulator.hpp"

#include "milback/core/contract.hpp"

namespace milback::sim {

Accumulator Accumulator::from(std::span<const std::optional<double>> outcomes) {
  Accumulator acc;
  acc.samples_.reserve(outcomes.size());
  for (const auto& o : outcomes) {
    if (o) {
      acc.add(*o);
    } else {
      acc.add_miss();
    }
  }
  MILBACK_ENSURE(acc.samples_.size() + acc.misses_ == outcomes.size(),
                 "Accumulator::from: every outcome is counted");
  return acc;
}

void Accumulator::merge(const Accumulator& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  misses_ += other.misses_;
}

double Accumulator::mean() const noexcept { return milback::mean(samples_); }

double Accumulator::stddev() const noexcept { return milback::stddev(samples_); }

double Accumulator::median() const { return milback::median(samples_); }

double Accumulator::percentile(double p) const {
  return milback::percentile(samples_, p);
}

double Accumulator::min() const noexcept { return milback::min_value(samples_); }

double Accumulator::max() const noexcept { return milback::max_value(samples_); }

std::vector<CdfPoint> Accumulator::cdf() const {
  return milback::empirical_cdf(samples_);
}

double Accumulator::fraction_below(double x) const {
  require_finite(x, "x");
  if (samples_.empty()) return 0.0;
  std::size_t below = 0;
  for (const double v : samples_) below += static_cast<std::size_t>(v <= x);
  return static_cast<double>(below) / static_cast<double>(samples_.size());
}

}  // namespace milback::sim
