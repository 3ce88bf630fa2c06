#include "milback/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback {

// milback-analyze: no-contract(total over any sample; empty input is defined to return 0)
double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / double(xs.size());
}

// milback-analyze: no-contract(total over any sample; fewer than 2 samples is defined to return 0)
double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / double(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

// milback-analyze: no-contract(total over any sample; empty input is defined to return 0)
double rms(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x * x;
  return std::sqrt(acc / double(xs.size()));
}

double min_value(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

namespace {

// The interpolation rank of percentile p in a sample of n > 0 values: the
// result is order statistic lo weighted (1 - frac) plus hi weighted frac.
struct Rank {
  std::size_t lo, hi;
  double frac;
};

Rank percentile_rank(std::size_t n, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * double(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return {lo, hi, rank - double(lo)};
}

double interpolate(double at_lo, double at_hi, double frac) {
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace

double percentile_in_place(std::span<double> xs, double p) {
  require_finite(p, "p");
  if (xs.empty()) return 0.0;
  // Selection, not a sort: order statistic lo by nth_element, and hi (at
  // most lo + 1) as the least value above it. The same two values as a full
  // sort, through the same interpolation.
  const Rank r = percentile_rank(xs.size(), p);
  const auto lo = xs.begin() + std::ptrdiff_t(r.lo);
  std::nth_element(xs.begin(), lo, xs.end());
  const double at_hi = r.hi == r.lo ? *lo : *std::min_element(lo + 1, xs.end());
  return interpolate(*lo, at_hi, r.frac);
}

// milback-analyze: no-contract(forwards to percentile_in_place, which checks p)
double percentile(std::span<const double> xs, double p) {
  std::vector<double> v(xs.begin(), xs.end());
  return percentile_in_place(v, p);
}

std::vector<double> percentiles(std::span<const double> xs,
                                std::span<const double> ps) {
  for (const double p : ps) require_finite(p, "p");
  if (xs.empty()) return std::vector<double>(ps.size(), 0.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) out.push_back(percentile_in_place(v, p));
  return out;
}

std::vector<double> percentiles(std::span<const double> xs,
                                std::initializer_list<double> ps) {
  return percentiles(xs, std::span<const double>(ps.begin(), ps.size()));
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

std::vector<CdfPoint> empirical_cdf(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  cdf.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cdf.push_back({sorted[i], double(i + 1) / double(sorted.size())});
  }
  MILBACK_ENSURE(cdf.size() == xs.size(),
                 "empirical_cdf: one point per sample");
  return cdf;
}

void RunningStats::add(double x) {
  require_finite(x, "x");
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / double(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace milback
