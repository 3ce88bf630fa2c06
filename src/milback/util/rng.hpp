// Deterministic random number generation for simulation experiments.
//
// Every stochastic experiment in this repository takes an explicit seed so
// results are reproducible run-to-run; `Rng` is a thin, seedable wrapper
// around a bit-exact, lazily seeded std::mt19937_64 with the draw helpers the
// signal chain needs.
//
// Speed without moving a bit. The engine twists a spent block with constant
// loop bounds and a masked (branch-free) twist constant, then tempers the
// whole block into a second 312-word array, so a draw is one load. The
// complex AWGN kernels run the Marsaglia polar method in two passes over the
// tempered block that is ready: a branch-free pass maps uniform pairs and
// compacts the accepted (x, y, s) into a buffer, then a scalar pass runs
// std::log/std::sqrt over it. Each pass consumes exactly the words the
// one-pair-at-a-time loop would (it never reads past the n-th accepted pair,
// and a pair that straddles the block edge is drawn word by word), and the
// transcendentals stay scalar libm calls because a vector math library
// (libmvec) does not round identically. `gaussian` and `fill_gaussian`
// restate libstdc++'s std::normal_distribution draw so that no distribution
// object is built per call. Two 312-word arrays make an Rng ~5 KB; it lives
// only on the stack (built per trial, event or burst from `stream`), never
// as a persistent member.
//
// First Gaussians in bulk. A stream that takes one Gaussian spends almost all
// its time in the first block's seed recurrence: 159 serial multiply-xor
// steps, each waiting on the one before, for the four words the first two
// polar pairs read. `first_gaussians` runs those recurrences for a block of
// stream keys side by side in an integer-only kernel (64 keys as eight
// 8-lane vectors on an x86-64-v4 CPU, chosen once at run time; 8 scalar keys
// elsewhere), keeps only the seed words the first four outputs read, twists
// and tempers those four, and maps them through the same polar step and
// scalar log/sqrt as `gaussian`. Integer steps are exact and every
// floating-point step runs in baseline code, so each result equals
// Rng(key).gaussian(mean, sigma) bit for bit; a key whose first two pairs
// both reject (~4.6%) takes that full draw. The cell engine draws the jitter
// of a sweep's bursty arrivals this way.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "milback/core/contract.hpp"

namespace milback {

/// Seedable random source. Not thread-safe; give each thread its own.
class Rng {
 public:
  /// Bit-for-bit std::mt19937_64: the same outputs for every seed and every
  /// draw count. It seeds and twists the first block lazily: output i < 156
  /// reads only seed words i, i+1 and i+156, so a stream that takes a few
  /// draws costs ~160 seed-recurrence steps instead of a 312-word fill plus a
  /// 312-word twist. Later blocks use a full twist and temper the block in
  /// one vectorizable pass.
  class Engine {
   public:
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    // The state arrays are left unfilled: the lazy seeding writes every
    // word before refill reads it.
    explicit Engine(result_type seed) { x_[0] = seed; }

    // A copy takes only the words written so far; the rest stay unread
    // until the lazy first block writes them.
    Engine(const Engine& other) noexcept { *this = other; }
    Engine& operator=(const Engine& other) noexcept {
      if (this != &other) {
        std::copy_n(other.x_.begin(), other.seeded_, x_.begin());
        std::copy_n(other.out_.begin(), other.end_, out_.begin());
        idx_ = other.idx_;
        end_ = other.end_;
        seeded_ = other.seeded_;
      }
      return *this;
    }

    result_type operator()() {
      if (idx_ >= end_) refill();
      return out_[idx_++];
    }

   private:
    friend class Rng;  // the bulk kernels read the tempered block in place

    static constexpr std::size_t kN = 312;  // state words (one block of outputs)
    static constexpr std::size_t kM = 156;  // twist offset
    static constexpr std::size_t kFirstEnd = 4;  // outputs of the first refill

    /// Makes outputs [idx_, end_) available: the next doubling of the
    /// first block's twisted prefix, or a full twist once the block is spent.
    void refill();

    std::array<std::uint64_t, kN> x_;    // twist state (seed words, first block)
    std::array<std::uint64_t, kN> out_;  // tempered outputs [0, end_) of the block
    std::size_t idx_ = 0;     // next output of the current block
    std::size_t end_ = 0;     // outputs [0, end_) of the current block are ready
    std::size_t seeded_ = 1;  // seed words [0, seeded_) exist (first block only)
  };

  /// Constructs a generator with the given seed (default: fixed seed so that
  /// "forgot to seed" is still deterministic rather than time-dependent).
  explicit Rng(std::uint64_t seed = 0x6d696c6261636bULL) : engine_(seed) {}

  /// Uniform double in [lo, hi); needs lo <= hi with a finite width.
  double uniform(double lo, double hi) {
    MILBACK_REQUIRE(lo <= hi && std::isfinite(hi - lo),
                    "Rng::uniform: needs lo <= hi with a finite width");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive; needs lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MILBACK_REQUIRE(lo <= hi, "Rng::uniform_int: needs lo <= hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation. `sigma` must be
  /// finite and >= 0; a zero sigma returns `mean` and still consumes the
  /// draw, so the stream position never depends on the noise level. Equal,
  /// value for value and draw for draw, to a fresh
  /// std::normal_distribution<double>(mean, sigma) on the engine.
  double gaussian(double mean = 0.0, double sigma = 1.0);

  /// Fills out[0..n) with zero-mean Gaussians of standard deviation `sigma`:
  /// exactly n `gaussian(0.0, sigma)` calls, with the contract checked once.
  void fill_gaussian(double* out, std::size_t n, double sigma);

  /// Circularly-symmetric complex Gaussian with total variance
  /// `variance` (i.e. E[|z|^2] = variance, finite and >= 0), the standard
  /// AWGN sample. Implemented with a direct Marsaglia polar draw; the bulk
  /// fills below consume the engine identically, so fill(n) == n single
  /// draws, sample for sample.
  std::complex<double> complex_gaussian(double variance = 1.0);

  /// Fills out[0..n) with iid complex Gaussian samples of total variance
  /// `variance`. Exactly the sequence n `complex_gaussian(variance)` calls
  /// would produce, without the per-call overhead — the AWGN hot path for
  /// beat-signal and burst synthesis.
  void fill_complex_gaussian(std::complex<double>* out, std::size_t n,
                             double variance);

  /// Adds iid complex Gaussian noise of total variance `variance` to
  /// x[0..n) in place (same draw sequence as `fill_complex_gaussian`).
  void add_complex_gaussian(std::complex<double>* x, std::size_t n,
                            double variance);

  /// Advances the engine exactly as `add_complex_gaussian(x, n, v)` would
  /// for any variance v: the same uniform pairs through the same polar
  /// rejection test, without the log/sqrt or a store. A caller that does not
  /// need a noise block discards it here and keeps every later draw in place.
  // milback-analyze: no-contract(any count is valid, including zero; there is no variance to check)
  void discard_complex_gaussian(std::size_t n);

  /// Bernoulli draw with probability `p` in [0, 1] of returning true.
  bool bernoulli(double p) {
    MILBACK_REQUIRE(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p must be in [0, 1]");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Random bit vector of length n (for payload generation).
  // milback-analyze: no-contract(any length is a valid payload, including zero)
  std::vector<bool> bits(std::size_t n) {
    std::vector<bool> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = bernoulli(0.5);
    return out;
  }

  /// Uniform phase in [-pi, pi).
  double phase();

  /// Forks an independent child generator; children with different labels
  /// are decorrelated from each other and from the parent.
  ///
  /// NOTE: forking draws from the parent engine, so the child depends on how
  /// many values the parent produced before the fork. For order-independent
  /// derivation (parallel trials, sweeps) use the stateless `stream` below.
  Rng fork(std::uint64_t label);

  /// SplitMix64 finalizer: a bijective 64-bit mix, the building block of
  /// `stream` derivation. Exposed for tests and seed plumbing.
  // milback-analyze: no-contract(bijective 64-bit mixer; every input is valid)
  static std::uint64_t mix64(std::uint64_t z) noexcept;

  /// Stateless counter-based stream derivation: the returned generator is a
  /// pure function of (seed, id0, id1, ...) with **no** draw from any parent
  /// engine, so trial i's stream is identical regardless of construction
  /// order or thread count. Distinct id tuples give decorrelated streams;
  /// ids are hashed positionally, so stream(s, 1, 2) != stream(s, 2, 1).
  template <typename... Ids>
  // milback-analyze: no-contract(total by construction; any (seed, ids...) tuple is a valid stream key)
  static Rng stream(std::uint64_t seed, Ids... ids) {
    return Rng(stream_key(seed, ids...));
  }

  /// The engine seed of stream(seed, ids...), so that stream is exactly
  /// Rng(stream_key(seed, ids...)): the SplitMix64 hash chain of the salted
  /// seed, then one mix per id. The keys `first_gaussians` takes.
  template <typename... Ids>
  // milback-analyze: no-contract(total by construction; any (seed, ids...) tuple is a valid stream key)
  static std::uint64_t stream_key(std::uint64_t seed, Ids... ids) {
    static_assert((std::is_integral_v<Ids> && ...),
                  "stream ids must be integers (cast floats explicitly)");
    std::uint64_t h = mix64(seed ^ kStreamSalt);
    ((h = mix64(h ^ (static_cast<std::uint64_t>(ids) + kGolden))), ...);
    return h;
  }

  /// out[i] = Rng(keys[i]).gaussian(mean, sigma) for every key, bit for bit,
  /// with the keys' seed recurrences run side by side (see the header
  /// comment). `sigma` must be finite and >= 0 and `out` as long as `keys`;
  /// any count is valid, zero included.
  // milback-analyze: no-contract(its first statement, require_first_gaussians in rng.cpp, checks sigma and the output length)
  static void first_gaussians(std::span<const std::uint64_t> keys, double mean,
                              double sigma, std::span<double> out);

  /// The seed that continues stream's hash chain past a key prefix:
  /// stream(stream_seed(s, a...), b...) == stream(s, a..., b...) for every
  /// prefix a... and suffix b..., and stream_seed(s) == s. A simulation
  /// begun with stream_seed(seed, c) draws exactly the streams its parent
  /// would key (seed, c, ...) — how a MultiCellEngine seeds its shards.
  template <typename... Ids>
  // milback-analyze: no-contract(total by construction; any (seed, ids...) tuple is a valid stream key)
  static std::uint64_t stream_seed(std::uint64_t seed, Ids... ids) {
    return unmix64(stream_key(seed, ids...)) ^ kStreamSalt;
  }

  /// Underlying engine access (for std distributions not wrapped here).
  Engine& engine() { return engine_; }

 private:
  /// Domain separator so stream(seed) never equals Rng(seed).
  static constexpr std::uint64_t kStreamSalt = 0x6d696c2d73696dULL;  // "mil-sim"
  /// Golden-ratio increment (same constant SplitMix64 uses to step).
  static constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

  /// Inverse of mix64 (unmix64(mix64(z)) == z).
  static std::uint64_t unmix64(std::uint64_t z) noexcept;

  struct PolarBuf;  // accepted polar points of one pass (rng.cpp)

  /// The two-pass polar kernel behind the block draws: draws n pairs that
  /// `Polar` accepts and hands each run of them to
  /// `sink(first, buf, count)`, the points of samples [first, first + count).
  template <typename Polar, typename Sink>
  void polar_draws(std::size_t n, Sink&& sink);

  Engine engine_;
};

namespace detail {

/// Rng::first_gaussians on one build of its seeding kernel, so tests can
/// cover both on one host; simulation code calls Rng::first_gaussians, which
/// picks the build by CPU feature. `narrow` runs 8-key blocks on any x86-64;
/// `wide` runs 64-key blocks and needs `first_gaussians_wide_supported()`.
/// Same contracts as Rng::first_gaussians.
void first_gaussians_narrow(std::span<const std::uint64_t> keys, double mean,
                            double sigma, std::span<double> out);
void first_gaussians_wide(std::span<const std::uint64_t> keys, double mean,
                          double sigma, std::span<double> out);

/// Whether this CPU runs the wide kernel (x86-64-v4: AVX-512 F/BW/CD/DQ/VL).
/// Tested once, thread-safely, on the first call.
// milback-analyze: no-contract(a CPU feature query; takes no input)
bool first_gaussians_wide_supported() noexcept;

}  // namespace detail

}  // namespace milback
