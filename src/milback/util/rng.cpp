#include "milback/util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "milback/util/units.hpp"

namespace milback {

namespace {

constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;  // top 33 bits
constexpr std::uint64_t kTwistA = 0xb5026f5aa96619e9ULL;

/// One MT19937-64 twist step. The low bit of y picks the constant through a
/// mask, not a branch: the bit is random, and the masked form vectorizes.
inline std::uint64_t twist_word(std::uint64_t cur, std::uint64_t next, std::uint64_t far) {
  const std::uint64_t y = (cur & kUpper) | (next & ~kUpper);
  return far ^ (y >> 1) ^ (-(y & 1) & kTwistA);
}

inline std::uint64_t temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71d67fffeda60000ULL;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  return z ^ (z >> 43);
}

/// Uniform in [-1, 1) from one engine word (53 significand bits). The word
/// is < 2^53 after the shift, so the signed conversion is exact.
inline double uniform_pm1(std::uint64_t word) {
  return 0x1.0p-52 * double(static_cast<std::int64_t>(word >> 11)) - 1.0;
}

/// libstdc++'s generate_canonical<double, 53> on a 64-bit engine: the word
/// rounded to double, scaled by 2^-64 and clamped below 1 (nextafter(1, 0))
/// when the rounding carries to 2^64. The two 32-bit halves convert exactly
/// and their sum rounds once, so this is the correctly rounded word without
/// the sign branch of an unsigned 64-bit conversion.
inline double canonical(std::uint64_t word) {
  const double c = double(static_cast<std::int64_t>(word >> 32)) * 0x1p-32 +
                   double(static_cast<std::int64_t>(word & 0xffffffffULL)) * 0x1p-64;
  return std::min(c, 0x1.fffffffffffffp-1);
}

/// The complex AWGN draw: coordinates from 53-bit uniforms, a pair rejected
/// when s >= 1 or s == 0.
struct AwgnPolar {
  static double coord(std::uint64_t word) { return uniform_pm1(word); }
  static bool accept(double s) { return (s < 1.0) & (s != 0.0); }
};

/// libstdc++'s std::normal_distribution draw: coordinates 2 * canonical - 1,
/// a pair rejected when r2 > 1 or r2 == 0.
struct StdPolar {
  static double coord(std::uint64_t word) { return 2.0 * canonical(word) - 1.0; }
  static bool accept(double r2) { return (r2 <= 1.0) & (r2 != 0.0); }
};

/// The polar method's rejection loop: draws uniform pairs until one is
/// accepted. Returns s = x^2 + y^2.
template <typename Polar>
double polar_point(Rng::Engine& engine, double& x, double& y) {
  double s;
  do {
    x = Polar::coord(engine());
    y = Polar::coord(engine());
    s = x * x + y * y;
  } while (!Polar::accept(s));
  return s;
}

/// The factor sqrt(-2 ln s / s) that turns an accepted polar point into a
/// pair of unit Gaussians. Scalar libm calls: a vector math library does not
/// round log/sqrt identically.
inline double polar_radius(double s) { return std::sqrt(-2.0 * std::log(s) / s); }

/// A fresh std::normal_distribution's unit draw: the y coordinate of one
/// polar pair (the x it would cache dies with the distribution).
inline double unit_gaussian(Rng::Engine& engine) {
  double x, y;
  const double r2 = polar_point<StdPolar>(engine, x, y);
  return y * polar_radius(r2);
}

}  // namespace

/// Accepted polar points of one pass, compacted to the front.
struct Rng::PolarBuf {
  static constexpr std::size_t kCap = Engine::kN / 2;  // pairs in one block
  double x[kCap], y[kCap], s[kCap];
};

void Rng::Engine::refill() {
  if (end_ == kN) {  // block spent: twist and temper all of the next one
    // Constant bounds, and the second run stops two short of the block so
    // its trip count stays even: both runs vectorize without an epilogue.
    for (std::size_t k = 0; k < kN - kM; ++k) x_[k] = twist_word(x_[k], x_[k + 1], x_[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 2; ++k) {
      x_[k] = twist_word(x_[k], x_[k + 1], x_[k - (kN - kM)]);
    }
    x_[kN - 2] = twist_word(x_[kN - 2], x_[kN - 1], x_[kM - 2]);
    x_[kN - 1] = twist_word(x_[kN - 1], x_[0], x_[kM - 1]);
    for (std::size_t k = 0; k < kN; ++k) out_[k] = temper(x_[k]);
    idx_ = 0;
    return;
  }
  // First block: double the twisted prefix (starting at kFirstEnd outputs),
  // seeding only the words it reads. Locals, not members, in the seed loop:
  // the state words share the members' type, so a store to x_ would
  // otherwise force a reload of the loop bound every step.
  const std::size_t end = std::min(kN, std::max(kFirstEnd, 2 * end_));
  const std::size_t need = std::min(kN, end + kM);
  std::uint64_t prev = x_[seeded_ - 1];
  for (std::size_t i = seeded_; i < need; ++i) {
    prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = std::max(seeded_, need);
  // Twist words [end_, end) in output order, in place: word k < kM reads
  // seed words k, k+1 and k+kM; later words read the new word k-kM; the
  // last reads the new word 0. Temper each as it is twisted.
  std::size_t k = end_;
  for (; k < std::min(end, kN - kM); ++k) x_[k] = twist_word(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < std::min(end, kN - 1); ++k) x_[k] = twist_word(x_[k], x_[k + 1], x_[k - kM]);
  if (k < end) x_[kN - 1] = twist_word(x_[kN - 1], x_[0], x_[kM - 1]);
  for (k = end_; k < end; ++k) out_[k] = temper(x_[k]);
  end_ = end;
}

template <std::size_t W>
void Rng::Engine::prime_lanes(Engine* const* engines) {
  std::array<Engine*, W> e;
  std::array<std::uint64_t, W> prev;
  for (std::size_t w = 0; w < W; ++w) {
    e[w] = engines[w];
    MILBACK_REQUIRE(e[w]->fresh(), "Rng::Engine::prime: engine already drew or was primed");
    for (std::size_t v = 0; v < w; ++v) {
      MILBACK_REQUIRE(e[v] != e[w], "Rng::Engine::prime: engine listed twice");
    }
    prev[w] = e[w]->x_[0];
  }
  // refill()'s first block, lane by lane at each step: seed words
  // [1, kFirstEnd + kM), then twist and temper outputs [0, kFirstEnd). The
  // lane loop is unrolled so each lane's word lives in a register; rolled,
  // prev stays an array in memory and every step waits on a store and a
  // reload.
  constexpr std::size_t kNeed = kFirstEnd + kM;
  for (std::size_t i = 1; i < kNeed; ++i) {
#pragma GCC unroll 4
    for (std::size_t w = 0; w < W; ++w) {
      prev[w] = 6364136223846793005ULL * (prev[w] ^ (prev[w] >> 62)) + i;
      e[w]->x_[i] = prev[w];
    }
  }
  for (std::size_t w = 0; w < W; ++w) {
    Engine& g = *e[w];
    for (std::size_t k = 0; k < kFirstEnd; ++k) {
      g.x_[k] = twist_word(g.x_[k], g.x_[k + 1], g.x_[k + kM]);
      g.out_[k] = temper(g.x_[k]);
    }
    g.seeded_ = kNeed;
    g.end_ = kFirstEnd;
  }
}

void Rng::Engine::prime(std::span<Engine* const> engines) {
  std::size_t k = 0;
  for (; k + kPrimeLanes <= engines.size(); k += kPrimeLanes) {
    prime_lanes<kPrimeLanes>(engines.data() + k);
  }
  static_assert(kPrimeLanes == 4, "the tail below covers 1..3 leftover engines");
  switch (engines.size() - k) {
    case 3: prime_lanes<3>(engines.data() + k); break;
    case 2: prime_lanes<2>(engines.data() + k); break;
    case 1: prime_lanes<1>(engines.data() + k); break;
    default: break;
  }
}

double Rng::phase() { return uniform(-kPi, kPi); }

double Rng::gaussian(double mean, double sigma) {
  MILBACK_REQUIRE(std::isfinite(sigma) && sigma >= 0.0,
                  "Rng::gaussian: sigma must be finite and >= 0");
  return unit_gaussian(engine_) * sigma + mean;
}

void Rng::fill_gaussian(double* out, std::size_t n, double sigma) {
  MILBACK_REQUIRE(std::isfinite(sigma) && sigma >= 0.0,
                  "Rng::fill_gaussian: sigma must be finite and >= 0");
  polar_draws<StdPolar>(n, [out, sigma](std::size_t first, const PolarBuf& p, std::size_t count) {
    // `+ 0.0` is gaussian()'s zero mean: a zero sigma gives +0.0, not -0.0.
    for (std::size_t i = 0; i < count; ++i) {
      out[first + i] = p.y[i] * polar_radius(p.s[i]) * sigma + 0.0;
    }
  });
}

std::complex<double> Rng::complex_gaussian(double variance) {
  MILBACK_REQUIRE(std::isfinite(variance) && variance >= 0.0,
                  "Rng::complex_gaussian: variance must be finite and >= 0");
  double x, y;
  const double s = polar_point<AwgnPolar>(engine_, x, y);
  const double k = std::sqrt(variance / 2.0) * polar_radius(s);
  return {x * k, y * k};
}

template <typename Polar, typename Sink>
void Rng::polar_draws(std::size_t n, Sink&& sink) {
  PolarBuf buf;
  Engine& e = engine_;
  std::size_t done = 0;
  while (done < n) {
    if (e.idx_ >= e.end_) e.refill();
    // Every sample takes at least one pair, so a pass over at most n - done
    // pairs never consumes a word past the n-th accepted pair.
    const std::size_t m = std::min((e.end_ - e.idx_) / 2, n - done);
    if (m == 0) {  // one word left: the pair straddles the block edge
      buf.s[0] = polar_point<Polar>(e, buf.x[0], buf.y[0]);
      sink(done, buf, std::size_t{1});
      ++done;
      continue;
    }
    const std::uint64_t* w = e.out_.data() + e.idx_;
    std::size_t got = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const double x = Polar::coord(w[2 * j]);
      const double y = Polar::coord(w[2 * j + 1]);
      const double s = x * x + y * y;
      // Store unconditionally; only an accept advances the write index.
      buf.x[got] = x;
      buf.y[got] = y;
      buf.s[got] = s;
      got += static_cast<std::size_t>(Polar::accept(s));
    }
    e.idx_ += 2 * m;
    sink(done, buf, got);
    done += got;
  }
}

void Rng::fill_complex_gaussian(std::complex<double>* out, std::size_t n,
                                double variance) {
  MILBACK_REQUIRE(std::isfinite(variance) && variance >= 0.0,
                  "Rng::fill_complex_gaussian: variance must be finite and >= 0");
  const double sigma = std::sqrt(variance / 2.0);
  polar_draws<AwgnPolar>(n, [out, sigma](std::size_t first, const PolarBuf& p, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const double k = sigma * polar_radius(p.s[i]);
      out[first + i] = {p.x[i] * k, p.y[i] * k};
    }
  });
}

void Rng::add_complex_gaussian(std::complex<double>* x, std::size_t n,
                               double variance) {
  MILBACK_REQUIRE(std::isfinite(variance) && variance >= 0.0,
                  "Rng::add_complex_gaussian: variance must be finite and >= 0");
  const double sigma = std::sqrt(variance / 2.0);
  polar_draws<AwgnPolar>(n, [x, sigma](std::size_t first, const PolarBuf& p, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const double k = sigma * polar_radius(p.s[i]);
      x[first + i] += std::complex<double>{p.x[i] * k, p.y[i] * k};
    }
  });
}

void Rng::discard_complex_gaussian(std::size_t n) {
  polar_draws<AwgnPolar>(n, [](std::size_t, const PolarBuf&, std::size_t) {});
}

std::uint64_t Rng::mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::unmix64(std::uint64_t z) noexcept {
  // Each xorshift undone by re-applying it until the shifted bits run out,
  // each multiply by the constant's inverse mod 2^64.
  z ^= (z >> 31) ^ (z >> 62);
  z *= 0x319642b2d24d8ec3ULL;
  z ^= (z >> 27) ^ (z >> 54);
  z *= 0x96de1b173f119089ULL;
  return z ^ (z >> 30) ^ (z >> 60);
}

Rng Rng::fork(std::uint64_t label) {
  // SplitMix64-style mixing of a fresh draw with the label so that forks with
  // different labels are decorrelated even if requested in a different order.
  return Rng(mix64(engine_() ^ (label + kGolden)));
}

}  // namespace milback
