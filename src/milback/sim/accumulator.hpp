// Order-stable reduction of Monte-Carlo trial outcomes.
//
// The engine hands back trial results in trial-index order (TrialRunner/Sweep
// guarantee this), and the Accumulator reduces them in insertion order — so
// every statistic it reports is bit-identical no matter how the trials were
// scheduled. It replaces the per-bench copies of "errs vector + miss counter
// + mean/percentile calls" with one vocabulary type.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "milback/util/stats.hpp"

namespace milback::sim {

class Accumulator {
 public:
  Accumulator() = default;

  /// Builds from per-trial outcomes in trial order; nullopt counts as a miss
  /// (undetected / invalid trial), a value as one sample.
  static Accumulator from(std::span<const std::optional<double>> outcomes);

  /// Adds one sample.
  void add(double sample) { samples_.push_back(sample); }
  /// Records one missed (invalid) trial.
  void add_miss() { ++misses_; }
  /// Folds another accumulator's samples and misses onto this one.
  void merge(const Accumulator& other);

  /// Samples in insertion order.
  const std::vector<double>& samples() const noexcept { return samples_; }
  /// Number of samples.
  std::size_t count() const noexcept { return samples_.size(); }
  /// Number of missed trials.
  std::size_t misses() const noexcept { return misses_; }

  double mean() const noexcept;
  double stddev() const noexcept;
  double median() const;
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double min() const noexcept;
  double max() const noexcept;

  /// Full empirical CDF (sorted values with step probabilities).
  std::vector<CdfPoint> cdf() const;
  /// Fraction of samples <= x; 0 when empty.
  double fraction_below(double x) const;

 private:
  std::vector<double> samples_;
  std::size_t misses_ = 0;
};

}  // namespace milback::sim
