// Deterministic RNG tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "milback/core/contract.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(5);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.gaussian(1.5, 2.0);
  EXPECT_NEAR(mean(xs), 1.5, 0.06);
  EXPECT_NEAR(stddev(xs), 2.0, 0.06);
}

TEST(Rng, GaussianMatchesParameterizedDistribution) {
  // Scaling a unit draw reproduces std::normal_distribution(mean, sigma)
  // value for value and leaves the engine in the same state.
  Rng a(21);
  std::mt19937_64 b(21);
  for (int i = 0; i < 1000; ++i) {
    const double sigma = 0.25 + 0.01 * double(i);
    EXPECT_EQ(a.gaussian(-0.5, sigma), std::normal_distribution<double>(-0.5, sigma)(b));
  }
  EXPECT_EQ(a.engine()(), b());
}

TEST(Rng, ZeroSigmaGaussianReturnsMeanAndConsumesDraw) {
  Rng a(22), b(22);
  EXPECT_EQ(a.gaussian(1.25, 0.0), 1.25);
  (void)b.gaussian(1.25, 1.0);
  EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, GaussianRejectsNegativeOrNonFiniteSigma) {
  Rng rng(23);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), ContractViolation);
  EXPECT_THROW(rng.gaussian(0.0, std::nan("")), ContractViolation);
  EXPECT_THROW(rng.gaussian(0.0, std::numeric_limits<double>::infinity()), ContractViolation);
}

TEST(Rng, UniformRejectsInvertedOrNonFiniteBounds) {
  Rng rng(24);
  EXPECT_EQ(rng.uniform(1.5, 1.5), 1.5);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
  EXPECT_THROW(rng.uniform(std::nan(""), 1.0), ContractViolation);
  EXPECT_THROW(rng.uniform(0.0, std::numeric_limits<double>::infinity()), ContractViolation);
  EXPECT_THROW(rng.uniform(-std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::max()),
               ContractViolation);
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(25);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, BernoulliRejectsProbabilityOutsideUnitInterval) {
  Rng rng(26);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_THROW(rng.bernoulli(-0.1), ContractViolation);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
  EXPECT_THROW(rng.bernoulli(std::nan("")), ContractViolation);
}

TEST(Rng, ComplexGaussianVariance) {
  Rng rng(6);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += std::norm(rng.complex_gaussian(3.0));
  EXPECT_NEAR(acc / n, 3.0, 0.12);
}

TEST(Rng, ComplexGaussianIsUncorrelatedAcrossComponents) {
  Rng rng(60);
  double cross = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto z = rng.complex_gaussian(1.0);
    cross += z.real() * z.imag();
  }
  EXPECT_NEAR(cross / n, 0.0, 0.02);
}

// Block counts and engine offsets for the bulk-draw equivalence tests. Each
// sample takes two or more engine words, so the counts end inside the lazy
// first block's doubling chunks and past its 312-word block edges; an odd
// offset makes a pair straddle a block edge.
constexpr std::size_t kBulkCounts[] = {0, 1, 155, 156, 157, 311, 312, 313, 900, 5000};
constexpr int kBulkOffsets[] = {0, 1, 3, 311};

// A generator seeded per count and advanced by `offset` draws.
Rng offset_rng(std::size_t n, int offset) {
  Rng rng(64 + n);
  for (int i = 0; i < offset; ++i) (void)rng.engine()();
  return rng;
}

TEST(Rng, BulkFillMatchesPerCallDraws) {
  // The bulk fill must consume the engine exactly like per-call draws, so
  // existing seeds reproduce the same noise no matter which API fills it.
  for (const std::size_t n : kBulkCounts) {
    for (const int offset : kBulkOffsets) {
      Rng a = offset_rng(n, offset);
      Rng b = a;
      std::vector<std::complex<double>> bulk(n);
      a.fill_complex_gaussian(bulk.data(), n, 2.5);
      std::size_t bad = 0;
      for (const auto& v : bulk) {
        const auto expect = b.complex_gaussian(2.5);
        bad += v.real() != expect.real() || v.imag() != expect.imag();
      }
      EXPECT_EQ(bad, 0u) << "n " << n << " offset " << offset;
      // And the engines end in the same state.
      EXPECT_EQ(a.engine()(), b.engine()()) << "n " << n << " offset " << offset;
    }
  }
}

TEST(Rng, BulkAddMatchesPerCallDraws) {
  for (const std::size_t n : kBulkCounts) {
    for (const int offset : kBulkOffsets) {
      Rng a = offset_rng(n, offset);
      Rng b = a;
      std::vector<std::complex<double>> sum(n, std::complex<double>{1.0, -2.0});
      a.add_complex_gaussian(sum.data(), n, 0.5);
      std::size_t bad = 0;
      for (const auto& v : sum) {
        const auto expect = std::complex<double>{1.0, -2.0} + b.complex_gaussian(0.5);
        bad += v.real() != expect.real() || v.imag() != expect.imag();
      }
      EXPECT_EQ(bad, 0u) << "n " << n << " offset " << offset;
      EXPECT_EQ(a.engine()(), b.engine()()) << "n " << n << " offset " << offset;
    }
  }
}

TEST(Rng, FillGaussianMatchesPerCallDraws) {
  for (const std::size_t n : kBulkCounts) {
    for (const int offset : kBulkOffsets) {
      Rng a = offset_rng(n, offset);
      Rng b = a;
      std::vector<double> bulk(n);
      a.fill_gaussian(bulk.data(), n, 0.75);
      std::size_t bad = 0;
      for (const double v : bulk) bad += v != b.gaussian(0.0, 0.75);
      EXPECT_EQ(bad, 0u) << "n " << n << " offset " << offset;
      EXPECT_EQ(a.engine()(), b.engine()()) << "n " << n << " offset " << offset;
    }
  }
}

TEST(Rng, FillGaussianRejectsNegativeOrNonFiniteSigma) {
  Rng rng(27);
  double out[4];
  EXPECT_THROW(rng.fill_gaussian(out, 4, -1.0), ContractViolation);
  EXPECT_THROW(rng.fill_gaussian(out, 4, std::nan("")), ContractViolation);
}

TEST(Rng, DiscardComplexGaussianAdvancesLikeAdd) {
  // Discarding a noise block must leave the engine exactly where adding it
  // would, on the same count and offset grid as the bulk fills.
  for (const std::size_t n : kBulkCounts) {
    for (const int offset : kBulkOffsets) {
      Rng rng = offset_rng(n, offset);
      Rng replay = rng;
      std::vector<std::complex<double>> x(n);
      rng.add_complex_gaussian(x.data(), n, 1.5);
      replay.discard_complex_gaussian(n);
      EXPECT_EQ(rng.engine()(), replay.engine()()) << "n " << n << " offset " << offset;
      EXPECT_EQ(rng.complex_gaussian(1.0), replay.complex_gaussian(1.0)) << "n " << n;
    }
  }
}

TEST(Rng, ComplexGaussianRejectsNegativeOrNonFiniteVariance) {
  Rng rng(28);
  std::vector<std::complex<double>> x(4);
  EXPECT_THROW(rng.complex_gaussian(-1.0), ContractViolation);
  EXPECT_THROW(rng.fill_complex_gaussian(x.data(), x.size(), std::nan("")), ContractViolation);
  EXPECT_THROW(rng.add_complex_gaussian(x.data(), x.size(),
                                        std::numeric_limits<double>::infinity()),
               ContractViolation);
}

TEST(Rng, ZeroVarianceComplexGaussianIsZero) {
  Rng rng(63);
  EXPECT_EQ(rng.complex_gaussian(0.0), (std::complex<double>{0.0, 0.0}));
  std::vector<std::complex<double>> x(8, std::complex<double>{3.0, 4.0});
  rng.add_complex_gaussian(x.data(), x.size(), 0.0);
  for (const auto& v : x) {
    EXPECT_EQ(v, (std::complex<double>{3.0, 4.0}));
  }
}

TEST(Rng, BitsAreBalanced) {
  Rng rng(8);
  const auto bits = rng.bits(10000);
  std::size_t ones = 0;
  for (const bool b : bits) ones += b;
  EXPECT_NEAR(double(ones) / double(bits.size()), 0.5, 0.03);
}

TEST(Rng, PhaseInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double p = rng.phase();
    EXPECT_GE(p, -kPi);
    EXPECT_LT(p, kPi);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(10);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform(0.0, 1.0) == c2.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkIsDeterministicGivenParentState) {
  Rng p1(11), p2(11);
  Rng c1 = p1.fork(42);
  Rng c2 = p2.fork(42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c1.uniform(0.0, 1.0), c2.uniform(0.0, 1.0));
  }
}

TEST(Rng, DefaultSeedIsFixed) {
  Rng a, b;
  EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, StreamIsAPureFunctionOfItsArguments) {
  Rng a = Rng::stream(42, 3, 7);
  Rng b = Rng::stream(42, 3, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, StreamIsIndependentOfConstructionOrder) {
  // Unlike fork, stream never draws from a parent: deriving other streams
  // first (in any order) must not change the one under test.
  Rng direct = Rng::stream(42, 5, 1);
  auto early = Rng::stream(42, 0, 0);
  auto other = Rng::stream(42, 9, 9);
  Rng late = Rng::stream(42, 5, 1);
  (void)early.uniform(0.0, 1.0);
  (void)other.uniform(0.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(direct.uniform(0.0, 1.0), late.uniform(0.0, 1.0));
  }
}

TEST(Rng, StreamIdsArePositional) {
  Rng ab = Rng::stream(1, 2, 3);
  Rng ba = Rng::stream(1, 3, 2);
  Rng prefix = Rng::stream(1, 2);
  int same_ab = 0, same_prefix = 0;
  for (int i = 0; i < 100; ++i) {
    const double x = ab.uniform(0.0, 1.0);
    same_ab += x == ba.uniform(0.0, 1.0);
    same_prefix += x == prefix.uniform(0.0, 1.0);
  }
  EXPECT_LT(same_ab, 5);
  EXPECT_LT(same_prefix, 5);
}

TEST(Rng, StreamDiffersFromPlainSeedConstruction) {
  Rng streamed = Rng::stream(42);
  Rng seeded(42);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += streamed.uniform(0.0, 1.0) == seeded.uniform(0.0, 1.0);
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, StreamsAcrossSweepGridArePairwiseDistinct) {
  // Regression for the ad-hoc bench seed arithmetic this replaced:
  // fork((100 + trial) * 1009 + uint64(d * 13)) collides across (trial,
  // distance) pairs because the distance term is truncated to a handful of
  // values. A (seed, point, trial) stream grid must never collide: compare
  // the first two draws of every cell over a fig12a-sized grid.
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  const std::size_t points = 8, trials = 25;
  for (std::size_t p = 0; p < points; ++p) {
    for (std::size_t t = 0; t < trials; ++t) {
      auto rng = Rng::stream(42, p, t);
      const auto key = std::make_pair(rng.engine()(), rng.engine()());
      EXPECT_TRUE(seen.insert(key).second)
          << "stream collision at point " << p << " trial " << t;
    }
  }
  EXPECT_EQ(seen.size(), points * trials);
}

TEST(Rng, StreamSeedIsAKeyPrefix) {
  // stream(stream_seed(s, a...), b...) == stream(s, a..., b...) for 0 to 3
  // prefix ids and 0 to 2 suffix ids: a simulation seeded with the prefix
  // draws exactly the streams of the longer key.
  const auto same = [](Rng a, Rng b) {
    for (int i = 0; i < 8; ++i) {
      if (a.engine()() != b.engine()()) return false;
    }
    return true;
  };
  for (const std::uint64_t s : {0ULL, 1ULL, 42ULL, 0x6d696c2d73696dULL, ~0ULL}) {
    const std::uint64_t a = s * 7 + 3, b = ~s, c = 12345;
    EXPECT_EQ(Rng::stream_seed(s), s);
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s)), Rng::stream(s)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s), 9), Rng::stream(s, 9)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s), 9, 8), Rng::stream(s, 9, 8)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s, a)), Rng::stream(s, a)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s, a), 9), Rng::stream(s, a, 9)));
    EXPECT_TRUE(
        same(Rng::stream(Rng::stream_seed(s, a), 9, 8), Rng::stream(s, a, 9, 8)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s, a, b)), Rng::stream(s, a, b)));
    EXPECT_TRUE(
        same(Rng::stream(Rng::stream_seed(s, a, b), 9), Rng::stream(s, a, b, 9)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s, a, b), 9, 8),
                     Rng::stream(s, a, b, 9, 8)));
    EXPECT_TRUE(
        same(Rng::stream(Rng::stream_seed(s, a, b, c)), Rng::stream(s, a, b, c)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s, a, b, c), 9),
                     Rng::stream(s, a, b, c, 9)));
    EXPECT_TRUE(same(Rng::stream(Rng::stream_seed(s, a, b, c), 9, 8),
                     Rng::stream(s, a, b, c, 9, 8)));
    // A prefix seed is itself a new key, not the old seed reused.
    EXPECT_NE(Rng::stream_seed(s, a), s);
    EXPECT_NE(Rng::stream_seed(s, a), Rng::stream_seed(s, a + 1));
  }
}

// The stream key derivation of Rng::stream(seed, id), restated so the test
// pins both the derivation and the engine behind it.
std::uint64_t stream_key(std::uint64_t seed, std::uint64_t id) {
  return Rng::mix64(Rng::mix64(seed ^ 0x6d696c2d73696dULL) ^ (id + 0x9e3779b97f4a7c15ULL));
}

// Number of the first `n` draws on which `e` and `ref` disagree.
std::size_t mismatches(Rng::Engine& e, std::mt19937_64& ref, std::size_t n) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) bad += e() != ref();
  return bad;
}

TEST(RngEngine, MatchesStdMt19937_64) {
  // Every draw count around the lazy first block's chunk edges (4, 8, ...,
  // 156) and the block edges (312, 624), for the classic seeds and 1000
  // stream keys.
  const std::size_t counts[] = {0,   1,   2,   3,   4,   5,   7,   8,   9,    155,
                                156, 157, 311, 312, 313, 623, 624, 625, 10000};
  std::vector<std::uint64_t> seeds = {0, 5489, 0x6d696c6261636bULL, ~0ULL};
  for (std::uint64_t id = 0; id < 1000; ++id) seeds.push_back(stream_key(42, id));
  for (const auto seed : seeds) {
    for (const auto n : counts) {
      Rng::Engine e(seed);
      std::mt19937_64 ref(seed);
      ASSERT_EQ(mismatches(e, ref, n), 0u) << "seed " << seed << " count " << n;
    }
  }
  // The default-seeded Rng and a stream draw the same engine outputs.
  Rng plain;
  std::mt19937_64 plain_ref(0x6d696c6261636bULL);
  EXPECT_EQ(mismatches(plain.engine(), plain_ref, 700), 0u);
  Rng streamed = Rng::stream(42, 7);
  std::mt19937_64 streamed_ref(stream_key(42, 7));
  EXPECT_EQ(mismatches(streamed.engine(), streamed_ref, 700), 0u);
}

TEST(RngEngine, CopyTakenMidFirstBlockContinuesIdentically) {
  for (const std::size_t drawn : {1u, 3u, 4u, 5u, 100u, 157u, 311u}) {
    Rng::Engine e(1234);
    std::mt19937_64 ref(1234);
    ASSERT_EQ(mismatches(e, ref, drawn), 0u);
    Rng::Engine copy = e;
    std::mt19937_64 ref_copy = ref;
    EXPECT_EQ(mismatches(e, ref, 700), 0u) << "original after " << drawn;
    EXPECT_EQ(mismatches(copy, ref_copy, 700), 0u) << "copy after " << drawn;
  }
}

TEST(RngEngine, InterleavedDistributionsMatchStdEngine) {
  // The wrapped draws are the std distributions on the engine, so a fresh
  // stream (still in its lazy first block) and std::mt19937_64 agree on
  // every value of a mixed draw sequence.
  for (std::uint64_t id = 0; id < 20; ++id) {
    Rng a = Rng::stream(42, id);
    std::mt19937_64 b(stream_key(42, id));
    for (int i = 0; i < 400; ++i) {
      const double sigma = 0.5 + 0.01 * double(i);
      ASSERT_EQ(a.gaussian(1.0, sigma), std::normal_distribution<double>(1.0, sigma)(b));
      ASSERT_EQ(a.uniform(-2.0, 3.0), std::uniform_real_distribution<double>(-2.0, 3.0)(b));
      ASSERT_EQ(a.uniform_int(-5, 1000 + i),
                std::uniform_int_distribution<std::int64_t>(-5, 1000 + i)(b));
      ASSERT_EQ(a.bernoulli(0.3), std::bernoulli_distribution(0.3)(b));
    }
    EXPECT_EQ(a.engine()(), b());
  }
}

// A reference std engine that counts the words a distribution takes.
struct CountingMt {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() {
    ++words;
    return mt();
  }
  std::mt19937_64 mt;
  std::size_t words = 0;
};

// Whether the stream `key` seeds rejects both of its first two polar pairs,
// so its first Gaussian reads past output 4 (first_gaussians' full-draw
// path). Decided on std::mt19937_64 and std::normal_distribution alone.
bool rejects_first_two_pairs(std::uint64_t key) {
  CountingMt e{std::mt19937_64(key)};
  std::normal_distribution<double>(0.0, 1.0)(e);
  return e.words > 4;
}

// A stream id list for first_gaussians: `regular` plain ids, with at least
// `fallback` ids whose streams take the full draw spread through it.
struct KeyedIds {
  std::uint64_t seed;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> keys;
};

KeyedIds first_gaussian_ids(std::uint64_t seed, std::size_t regular, std::size_t fallback) {
  KeyedIds out{seed, {}, {}};
  std::size_t found = 0;
  for (std::uint64_t id = 0; out.ids.size() - found < regular || found < fallback; ++id) {
    const bool rejects = rejects_first_two_pairs(Rng::stream_key(seed, id));
    if (rejects && found < fallback) {
      out.ids.push_back(id);
      ++found;
    } else if (!rejects && out.ids.size() - found < regular) {
      out.ids.push_back(id);
    }
  }
  for (const auto id : out.ids) out.keys.push_back(Rng::stream_key(seed, id));
  return out;
}

using FirstGaussiansFn = void (*)(std::span<const std::uint64_t>, double, double,
                                  std::span<double>);

// The builds under test: the public dispatch, the scalar kernel (every
// host) and the vector kernel (hosts that have it).
std::vector<std::pair<std::string, FirstGaussiansFn>> first_gaussian_builds() {
  std::vector<std::pair<std::string, FirstGaussiansFn>> out = {
      {"dispatch", &Rng::first_gaussians}, {"narrow", &detail::first_gaussians_narrow}};
  if (detail::first_gaussians_wide_supported()) {
    out.emplace_back("wide", &detail::first_gaussians_wide);
  }
  return out;
}

// Number of keys[0, n) whose draw differs in any bit from
// Rng::stream(seed, id).gaussian(mean, sigma).
std::size_t first_gaussian_mismatches(FirstGaussiansFn fn, const KeyedIds& k, std::size_t n,
                                      double mean, double sigma) {
  std::vector<double> got(n, std::numeric_limits<double>::quiet_NaN());
  fn(std::span(k.keys).first(n), mean, sigma, got);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double want = Rng::stream(k.seed, k.ids[i]).gaussian(mean, sigma);
    bad += std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want);
  }
  return bad;
}

TEST(RngFirstGaussians, StreamKeySeedsTheStream) {
  for (std::uint64_t id = 0; id < 50; ++id) {
    Rng keyed(Rng::stream_key(11, id, 3 * id));
    Rng streamed = Rng::stream(11, id, 3 * id);
    for (int d = 0; d < 20; ++d) ASSERT_EQ(keyed.engine()(), streamed.engine()());
  }
  EXPECT_EQ(Rng::stream_key(42, 7), stream_key(42, 7));
}

TEST(RngFirstGaussians, MatchStreamGaussiansBitForBit) {
  // 10k ordinary keys with 128 full-draw keys spread among them, each build.
  const KeyedIds k = first_gaussian_ids(2023, 10000, 128);
  std::size_t fallback = 0;
  for (const auto key : k.keys) fallback += rejects_first_two_pairs(key);
  ASSERT_GE(fallback, 128u);
  for (const auto& [name, fn] : first_gaussian_builds()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(first_gaussian_mismatches(fn, k, k.keys.size(), 0.0, 0.5), 0u);
    EXPECT_EQ(first_gaussian_mismatches(fn, k, k.keys.size(), -3.25, 7.0), 0u);
  }
  if (!detail::first_gaussians_wide_supported()) {
    GTEST_SKIP() << "this CPU lacks x86-64-v4: the wide kernel was not run";
  }
}

TEST(RngFirstGaussians, EveryBatchSizeAroundTheBlockEdges) {
  // In search order, and with the 100 full-draw keys moved to the front so
  // even the short batches take that path.
  const KeyedIds k = first_gaussian_ids(77, 4000, 100);
  KeyedIds mixed = k;
  std::stable_partition(mixed.ids.begin(), mixed.ids.end(), [](std::uint64_t id) {
    return rejects_first_two_pairs(Rng::stream_key(77, id));
  });
  for (std::size_t i = 0; i < mixed.ids.size(); ++i) {
    mixed.keys[i] = Rng::stream_key(77, mixed.ids[i]);
  }
  for (const auto& [name, fn] : first_gaussian_builds()) {
    for (const std::size_t n : {0, 1, 7, 8, 9, 63, 64, 65, 4000}) {
      SCOPED_TRACE(name + ", batch " + std::to_string(n));
      EXPECT_EQ(first_gaussian_mismatches(fn, k, n, 1.0, 2.0), 0u);
      EXPECT_EQ(first_gaussian_mismatches(fn, mixed, n, 1.0, 2.0), 0u);
    }
  }
  if (!detail::first_gaussians_wide_supported()) {
    GTEST_SKIP() << "this CPU lacks x86-64-v4: the wide kernel was not run";
  }
}

TEST(RngFirstGaussians, ZeroSigmaReturnsTheMean) {
  const KeyedIds k = first_gaussian_ids(5, 200, 20);
  for (const auto& [name, fn] : first_gaussian_builds()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(first_gaussian_mismatches(fn, k, k.keys.size(), 0.0, 0.0), 0u);
    EXPECT_EQ(first_gaussian_mismatches(fn, k, k.keys.size(), 2.5, 0.0), 0u);
    std::vector<double> got(k.keys.size());
    fn(k.keys, 2.5, 0.0, got);
    for (const double g : got) ASSERT_EQ(g, 2.5);
  }
}

TEST(RngFirstGaussians, RejectNegativeOrNonFiniteSigmaAndShortOutput) {
  const std::vector<std::uint64_t> keys = {1, 2, 3};
  std::vector<double> out(3);
  std::vector<double> short_out(2);
  for (const auto& [name, fn] : first_gaussian_builds()) {
    SCOPED_TRACE(name);
    EXPECT_THROW(fn(keys, 0.0, -1.0, out), ContractViolation);
    EXPECT_THROW(fn(keys, 0.0, std::numeric_limits<double>::quiet_NaN(), out),
                 ContractViolation);
    EXPECT_THROW(fn(keys, 0.0, std::numeric_limits<double>::infinity(), out),
                 ContractViolation);
    EXPECT_THROW(fn(keys, 0.0, 1.0, short_out), ContractViolation);
    EXPECT_NO_THROW(fn({}, 0.0, 1.0, {}));
  }
}

TEST(FirstGaussiansThreadInvariance, FourWorkersMatchTheSerialDraws) {
  // The first call of the process picks the kernel build; four workers race
  // to make it (the ThreadSanitizer suite runs this test).
  const KeyedIds k = first_gaussian_ids(9, 2000, 40);
  const sim::TrialRunner runner(4);
  const auto batches = runner.map<std::vector<double>>(16, [&k](std::size_t t) {
    const auto keys = std::span(k.keys).subspan(t * 100, 257);
    std::vector<double> out(keys.size());
    Rng::first_gaussians(keys, 0.0, 0.5, out);
    return out;
  });
  for (std::size_t t = 0; t < batches.size(); ++t) {
    for (std::size_t i = 0; i < batches[t].size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batches[t][i]),
                std::bit_cast<std::uint64_t>(
                    Rng::stream(k.seed, k.ids[t * 100 + i]).gaussian(0.0, 0.5)))
          << "batch " << t << " key " << i;
    }
  }
}

// FNV-1a over the bytes of a buffer of doubles or words.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(T); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Seeds of the golden streams below; the middle one is the default seed.
constexpr std::uint64_t kGoldenSeeds[] = {1, 0x6d696c6261636bULL, 0xfeedfacecafebeefULL};

// The golden digests pin the noise streams themselves, not only their
// agreement with a per-call path: they were taken from the one-pair-at-a-time
// polar loop and the std::normal_distribution draw that the block kernels
// replaced, so any change to a drawn bit or to the draw count fails here.
TEST(RngGolden, FillComplexGaussian) {
  const std::uint64_t expect[] = {0x97b01358093e10dfULL, 0x3fa104fa2da997f9ULL,
                                  0x7e99c32e6cda11e2ULL};
  for (std::size_t i = 0; i < 3; ++i) {
    Rng rng(kGoldenSeeds[i]);
    std::vector<std::complex<double>> x(4096);
    rng.fill_complex_gaussian(x.data(), x.size(), 2.0);
    EXPECT_EQ(fnv1a(x), expect[i]) << "seed " << kGoldenSeeds[i];
  }
}

TEST(RngGolden, AddComplexGaussian) {
  const std::uint64_t expect[] = {0x542f2c0f49956748ULL, 0xc7c613e1d4c54118ULL,
                                  0x5ebf0122cd93d2feULL};
  for (std::size_t i = 0; i < 3; ++i) {
    Rng rng(kGoldenSeeds[i]);
    std::vector<std::complex<double>> x(4096);
    for (std::size_t k = 0; k < x.size(); ++k) x[k] = {0.25 * double(k), -0.5 * double(k)};
    rng.add_complex_gaussian(x.data(), x.size(), 0.5);
    EXPECT_EQ(fnv1a(x), expect[i]) << "seed " << kGoldenSeeds[i];
  }
}

TEST(RngGolden, DiscardComplexGaussianThenDraw) {
  const std::uint64_t expect[] = {0xe7ea4b9a89afc6aaULL, 0xc60690ce3e549e98ULL,
                                  0xfc197a1d9ebcff0cULL};
  for (std::size_t i = 0; i < 3; ++i) {
    Rng rng(kGoldenSeeds[i]);
    rng.discard_complex_gaussian(900);
    EXPECT_EQ(fnv1a(std::vector<std::uint64_t>{rng.engine()()}), expect[i])
        << "seed " << kGoldenSeeds[i];
  }
}

TEST(RngGolden, Gaussian) {
  Rng rng(kGoldenSeeds[2]);
  std::vector<double> g(10000);
  for (auto& v : g) v = rng.gaussian();
  EXPECT_EQ(fnv1a(g), 0x3266d865218581c8ULL);
}

TEST(Rng, Mix64IsDeterministicAndMixes) {
  EXPECT_EQ(Rng::mix64(1), Rng::mix64(1));
  EXPECT_NE(Rng::mix64(1), Rng::mix64(2));
  EXPECT_NE(Rng::mix64(1), 1u);  // must not act as the identity
}

}  // namespace
}  // namespace milback
