// Descriptive statistics used by the evaluation harness: the paper reports
// means, variances, 90th percentiles and CDFs over repeated trials.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace milback {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Root mean square.
double rms(std::span<const double> xs) noexcept;

/// Minimum element; 0 for an empty span.
double min_value(std::span<const double> xs) noexcept;

/// Maximum element; 0 for an empty span.
double max_value(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100], by selection in place:
/// reorders `xs` (a caller's scratch buffer) to find the two order
/// statistics it interpolates (linear time, no full sort). Equal bit for
/// bit to interpolating a sorted copy, whatever order `xs` is in, so
/// several percentiles may be taken from one buffer in turn. Returns 0 for
/// an empty span.
double percentile_in_place(std::span<double> xs, double p);

/// percentile_in_place on a copy of `xs`.
double percentile(std::span<const double> xs, double p);

/// Several percentiles of the same sample: copies `xs` ONCE, then takes
/// every requested p (in [0, 100]) from the copy by percentile_in_place.
/// Result aligns with `ps`; each entry equals percentile(xs, ps[i]) exactly.
/// Returns all zeros for an empty sample.
std::vector<double> percentiles(std::span<const double> xs,
                                std::span<const double> ps);

/// Initializer-list convenience: `percentiles(latencies, {50.0, 95.0})`.
std::vector<double> percentiles(std::span<const double> xs,
                                std::initializer_list<double> ps);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double value;        ///< Sample value.
  double probability;  ///< Fraction of samples <= value, in (0, 1].
};

/// Builds the full empirical CDF (sorted values with step probabilities).
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs);

/// Running aggregator for when samples arrive one at a time.
class RunningStats {
 public:
  /// Adds one sample (Welford update).
  void add(double x);

  /// Number of samples added.
  std::size_t count() const noexcept { return n_; }
  /// Mean of samples so far (0 if none).
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased variance (0 if fewer than 2 samples).
  double variance() const noexcept { return n_ > 1 ? m2_ / double(n_ - 1) : 0.0; }
  /// Standard deviation.
  double stddev() const noexcept;
  /// Minimum sample (0 if none).
  double min() const noexcept { return n_ ? min_ : 0.0; }
  /// Maximum sample (0 if none).
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace milback
