#include "milback/util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "milback/util/units.hpp"

namespace milback {

namespace {

/// Uniform in [-1, 1) from one engine draw (53 significand bits).
inline double uniform_pm1(Rng::Engine& engine) {
  return 0x1.0p-52 * double(engine() >> 11) - 1.0;
}

/// The polar method's rejection loop: draws uniform pairs until one lands
/// inside the unit disc, off the origin. Returns s = x^2 + y^2.
inline double polar_point(Rng::Engine& engine, double& x, double& y) {
  double s;
  do {
    x = uniform_pm1(engine);
    y = uniform_pm1(engine);
    s = x * x + y * y;
  } while (s >= 1.0 || s == 0.0);
  return s;
}

/// One Marsaglia polar draw: a pair of independent unit Gaussians, scaled so
/// the complex sample has E[|z|^2] = variance.
inline std::complex<double> polar_pair(Rng::Engine& engine, double sigma) {
  double x, y;
  const double s = polar_point(engine, x, y);
  const double k = sigma * std::sqrt(-2.0 * std::log(s) / s);
  return {x * k, y * k};
}

}  // namespace

void Rng::Engine::refill() {
  // Twists state words [lo, hi) of the next block in output order, in place:
  // word k < kM reads old words k, k+1 and k+kM; later words read the new
  // word k-kM; the last reads the new word 0. In the first block the old
  // words are the seed words.
  const auto twist = [&x = x_](std::size_t lo, std::size_t hi) {
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;  // top 33 bits
    const auto step = [&x](std::size_t k, std::uint64_t next, std::uint64_t far) {
      const std::uint64_t y = (x[k] & kUpper) | (next & ~kUpper);
      x[k] = far ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    };
    std::size_t k = lo;
    for (; k < std::min(hi, kN - kM); ++k) step(k, x[k + 1], x[k + kM]);
    for (; k < std::min(hi, kN - 1); ++k) step(k, x[k + 1], x[k - kM]);
    if (k < hi) step(kN - 1, x[0], x[kM - 1]);
  };
  if (end_ == kN) {  // block spent: twist all of the next one
    twist(0, kN);
    idx_ = 0;
    return;
  }
  // First block: double the twisted prefix (starting at 4 outputs), seeding
  // only the words it reads. Locals, not members, in the seed loop: the
  // state words share the members' type, so a store to x_ would otherwise
  // force a reload of the loop bound every step.
  const std::size_t end = std::min(kN, std::max<std::size_t>(4, 2 * end_));
  const std::size_t need = std::min(kN, end + kM);
  std::uint64_t prev = x_[seeded_ - 1];
  for (std::size_t i = seeded_; i < need; ++i) {
    prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = std::max(seeded_, need);
  twist(end_, end);
  end_ = end;
}

double Rng::phase() { return uniform(-kPi, kPi); }

std::complex<double> Rng::complex_gaussian(double variance) {
  return polar_pair(engine_, std::sqrt(variance / 2.0));
}

void Rng::fill_complex_gaussian(std::complex<double>* out, std::size_t n,
                                double variance) {
  const double sigma = std::sqrt(variance / 2.0);
  for (std::size_t i = 0; i < n; ++i) out[i] = polar_pair(engine_, sigma);
}

void Rng::add_complex_gaussian(std::complex<double>* x, std::size_t n,
                               double variance) {
  const double sigma = std::sqrt(variance / 2.0);
  for (std::size_t i = 0; i < n; ++i) x[i] += polar_pair(engine_, sigma);
}

void Rng::discard_complex_gaussian(std::size_t n) {
  double x, y;
  for (std::size_t i = 0; i < n; ++i) polar_point(engine_, x, y);
}

std::uint64_t Rng::mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng Rng::fork(std::uint64_t label) {
  // SplitMix64-style mixing of a fresh draw with the label so that forks with
  // different labels are decorrelated even if requested in a different order.
  return Rng(mix64(engine_() ^ (label + kGolden)));
}

}  // namespace milback
