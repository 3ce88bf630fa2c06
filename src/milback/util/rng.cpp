#include "milback/util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "milback/util/units.hpp"

namespace milback {

namespace {

constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;  // top 33 bits
constexpr std::uint64_t kTwistA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kSeedMul = 6364136223846793005ULL;  // seed recurrence
constexpr std::size_t kTwistM = 156;    // Engine::kM
constexpr std::size_t kFirstWords = 4;  // Engine::kFirstEnd: the first two polar pairs

// The twist and temper helpers serve words and first_words' vector lanes
// alike. They take and write references: a 64-byte vector passed or
// returned by value would cross an ABI that differs between the baseline
// and the wide build.

/// One MT19937-64 twist step, in place on `cur`. The low bit of y picks the
/// constant through a mask, not a branch: the bit is random, and the masked
/// form vectorizes.
template <typename W>
[[gnu::always_inline]] inline void twist_word(W& cur, const W& next, const W& far) {
  const W y = (cur & kUpper) | (next & ~kUpper);
  cur = far ^ (y >> 1) ^ (-(y & 1) & kTwistA);
}

/// out = the tempered output of state word z.
template <typename W>
[[gnu::always_inline]] inline void temper(const W& z, W& out) {
  W t = z;
  t ^= (t >> 29) & 0x5555555555555555ULL;
  t ^= (t << 17) & 0x71d67fffeda60000ULL;
  t ^= (t << 37) & 0xfff7eee000000000ULL;
  out = t ^ (t >> 43);
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

/// The seeding kernel behind Rng::first_gaussians: the first kFirstWords
/// tempered outputs of `W` lanes of streams side by side, lane w seeded
/// with keys[w]. A lane `L` is one word or a vector of words; the body is
/// integer-only, so every build of it is exact. It runs refill()'s
/// first-block recurrence through seed word kTwistM + kFirstWords - 1 but
/// keeps only the words the first twists read, [0, kFirstWords] and
/// [kTwistM, kTwistM + kFirstWords). The lane loops unroll so each lane's
/// word stays in a register; rolled, every step waits on a store and a
/// reload.
template <typename L, std::size_t W>
[[gnu::always_inline]] inline void first_words(const L (&keys)[W],
                                               L (&out)[kFirstWords][W]) {
  // Left unfilled: the loops below write every element before reading it,
  // and zeroing them first costs ~5% of a block.
  L prev[W];
  L lo[kFirstWords + 1][W];
  L hi[kFirstWords][W];
#pragma GCC unroll 8
  for (std::size_t w = 0; w < W; ++w) lo[0][w] = prev[w] = keys[w];
  for (std::size_t i = 1; i <= kFirstWords; ++i) {
#pragma GCC unroll 8
    for (std::size_t w = 0; w < W; ++w) {
      prev[w] = kSeedMul * (prev[w] ^ (prev[w] >> 62)) + i;
      lo[i][w] = prev[w];
    }
  }
  for (std::size_t i = kFirstWords + 1; i < kTwistM; ++i) {
#pragma GCC unroll 8
    for (std::size_t w = 0; w < W; ++w) prev[w] = kSeedMul * (prev[w] ^ (prev[w] >> 62)) + i;
  }
  for (std::size_t i = kTwistM; i < kTwistM + kFirstWords; ++i) {
#pragma GCC unroll 8
    for (std::size_t w = 0; w < W; ++w) {
      prev[w] = kSeedMul * (prev[w] ^ (prev[w] >> 62)) + i;
      hi[i - kTwistM][w] = prev[w];
    }
  }
  for (std::size_t k = 0; k < kFirstWords; ++k) {
#pragma GCC unroll 8
    for (std::size_t w = 0; w < W; ++w) {
      twist_word(lo[k][w], lo[k + 1][w], hi[k][w]);
      temper(lo[k][w], out[k][w]);
    }
  }
}

/// A block build of first_words: the first kFirstWords outputs of the
/// streams keys[0, B) into words[k * B + i] (output k of key i).
using FirstWordsBlock = void (*)(const std::uint64_t* keys, std::uint64_t* words);

/// Keys per block of the scalar build: eight interleaved recurrences.
constexpr std::size_t kNarrowBlock = 8;

void narrow_block(const std::uint64_t* keys, std::uint64_t* words) {
  std::uint64_t lanes[kNarrowBlock]{};
  std::uint64_t out[kFirstWords][kNarrowBlock];  // first_words writes it all
  std::copy_n(keys, kNarrowBlock, lanes);
  first_words(lanes, out);
  std::memcpy(words, out, sizeof out);
}

/// A narrow block's last keys below this count draw from their own
/// streams instead (the same draws). The crossover, on a 4-vCPU x86-64-v4
/// VM: a padded block for one key (BM_Rng_FirstGaussians/1) reads ~0.85 us
/// and one key's own stream (BM_Rng_StreamOneGaussian) ~0.46 us, but two
/// keys' streams (~1.03 us) already cost more than the block (~0.88 us).
constexpr std::size_t kPerKeyTail = 2;

/// Keys per block of the vector build: eight vectors of eight keys.
constexpr std::size_t kWideBlock = 64;

#if defined(__x86_64__)
typedef std::uint64_t Lanes8 __attribute__((vector_size(64)));

// The only code built for another ISA; it holds no floating-point step (once
// FMA is on, GCC would contract a * b + c into one rounding).
[[gnu::target("arch=x86-64-v4")]] void wide_block(const std::uint64_t* keys,
                                                  std::uint64_t* words) {
  Lanes8 lanes[kWideBlock / 8]{};
  Lanes8 out[kFirstWords][kWideBlock / 8];  // first_words writes it all
  std::memcpy(lanes, keys, sizeof lanes);
  first_words(lanes, out);
  std::memcpy(words, out, sizeof out);
}
#endif

/// gaussian()'s draw from a stream's first kFirstWords outputs w[0],
/// w[stride], ...: the first of their two polar pairs StdPolar accepts, or
/// (both rejected) the full draw of the stream `key` seeds.
double first_gaussian(std::uint64_t key, const std::uint64_t* w, std::size_t stride,
                      double mean, double sigma) {
  for (std::size_t k = 0; k < kFirstWords; k += 2) {
    const double x = StdPolar::coord(w[k * stride]);
    const double y = StdPolar::coord(w[(k + 1) * stride]);
    const double r2 = x * x + y * y;
    if (StdPolar::accept(r2)) return y * polar_radius(r2) * sigma + mean;
  }
  return Rng(key).gaussian(mean, sigma);
}

/// Runs `block`, a B-key build, over `keys`; the last block is padded with
/// zero keys whose outputs are dropped.
template <std::size_t B>
void draw_blocks(FirstWordsBlock block, std::span<const std::uint64_t> keys,
                 double mean, double sigma, double* out) {
  std::uint64_t pad[B]{};
  std::uint64_t words[kFirstWords * B]{};
  for (std::size_t at = 0; at < keys.size(); at += B) {
    const std::size_t m = std::min(B, keys.size() - at);
    const std::uint64_t* in = keys.data() + at;
    if (m < B) {
      std::fill(std::copy_n(in, m, pad), pad + B, std::uint64_t{0});
      in = pad;
    }
    block(in, words);
    for (std::size_t i = 0; i < m; ++i) {
      out[at + i] = first_gaussian(keys[at + i], words + i, B, mean, sigma);
    }
  }
}

void require_first_gaussians(std::span<const std::uint64_t> keys, double sigma,
                             std::span<double> out) {
  MILBACK_REQUIRE(std::isfinite(sigma) && sigma >= 0.0,
                  "Rng::first_gaussians: sigma must be finite and >= 0");
  MILBACK_REQUIRE(out.size() == keys.size(),
                  "Rng::first_gaussians: needs one output per key");
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
    for (std::size_t k = 0; k < kN - kM; ++k) twist_word(x_[k], x_[k + 1], x_[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 2; ++k) {
      twist_word(x_[k], x_[k + 1], x_[k - (kN - kM)]);
    }
    twist_word(x_[kN - 2], x_[kN - 1], x_[kM - 2]);
    twist_word(x_[kN - 1], x_[0], x_[kM - 1]);
    for (std::size_t k = 0; k < kN; ++k) temper(x_[k], out_[k]);
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
    prev = kSeedMul * (prev ^ (prev >> 62)) + i;
    x_[i] = prev;
  }
  seeded_ = std::max(seeded_, need);
  // Twist words [end_, end) in output order, in place: word k < kM reads
  // seed words k, k+1 and k+kM; later words read the new word k-kM; the
  // last reads the new word 0. Temper each as it is twisted.
  std::size_t k = end_;
  for (; k < std::min(end, kN - kM); ++k) twist_word(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < std::min(end, kN - 1); ++k) twist_word(x_[k], x_[k + 1], x_[k - kM]);
  if (k < end) twist_word(x_[kN - 1], x_[0], x_[kM - 1]);
  for (k = end_; k < end; ++k) temper(x_[k], out_[k]);
  end_ = end;
}

void Rng::first_gaussians(std::span<const std::uint64_t> keys, double mean,
                          double sigma, std::span<double> out) {
  static_assert(kTwistM == Engine::kM && kFirstWords == Engine::kFirstEnd);
  require_first_gaussians(keys, sigma, out);
  // Whole wide blocks, then the tail: one padded wide block when that beats
  // its narrow blocks (a wide block costs about two narrow ones).
  std::size_t wide = 0;
  if (detail::first_gaussians_wide_supported()) {
    const std::size_t tail = keys.size() % kWideBlock;
    wide = tail > 2 * kNarrowBlock ? keys.size() : keys.size() - tail;
    detail::first_gaussians_wide(keys.first(wide), mean, sigma, out.first(wide));
  }
  // Narrow blocks, but a last block of fewer than kPerKeyTail keys costs
  // more padded than its keys' own streams do.
  const std::size_t rest = keys.size() - wide;
  const std::size_t short_tail = rest % kNarrowBlock < kPerKeyTail ? rest % kNarrowBlock : 0;
  const std::size_t narrow = rest - short_tail;
  draw_blocks<kNarrowBlock>(narrow_block, keys.subspan(wide, narrow), mean, sigma,
                            out.data() + wide);
  for (std::size_t i = wide + narrow; i < keys.size(); ++i) {
    out[i] = Rng(keys[i]).gaussian(mean, sigma);
  }
}

void detail::first_gaussians_narrow(std::span<const std::uint64_t> keys, double mean,
                                    double sigma, std::span<double> out) {
  require_first_gaussians(keys, sigma, out);
  draw_blocks<kNarrowBlock>(narrow_block, keys, mean, sigma, out.data());
}

void detail::first_gaussians_wide(std::span<const std::uint64_t> keys, double mean,
                                  double sigma, std::span<double> out) {
  require_first_gaussians(keys, sigma, out);
  MILBACK_REQUIRE(first_gaussians_wide_supported(),
                  "detail::first_gaussians_wide: this CPU lacks x86-64-v4");
#if defined(__x86_64__)
  draw_blocks<kWideBlock>(wide_block, keys, mean, sigma, out.data());
#endif
}

bool detail::first_gaussians_wide_supported() noexcept {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("x86-64-v4") != 0;
  }();
  return supported;
#else
  return false;
#endif
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
