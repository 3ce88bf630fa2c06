#include "milback/dsp/fft_plan.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "milback/core/contract.hpp"
#include "milback/obs/registry.hpp"

namespace milback::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  MILBACK_REQUIRE(is_pow2(n), "FftPlan: size must be a nonzero power of two");

  // Bit-reversal permutation, recorded as the swap partner of each index
  // (j < i entries are the already-swapped mirror and are skipped at
  // execution time, as in the textbook in-loop permutation).
  bitrev_.resize(n);
  for (std::size_t i = 0, j = 0; i < n; ++i) {
    bitrev_[i] = std::uint32_t(j);
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
  }

  // Per-stage twiddle tables. Each stage `len` stores the len/2 values the
  // textbook loop produces by repeated multiplication `w *= wlen`; keeping the
  // same recurrence (instead of calling cos/sin per entry) keeps planned
  // transforms bit-identical to the reference implementation.
  fwd_.reserve(n - 1);
  inv_.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (const int sign : {-1, +1}) {
      auto& table = sign < 0 ? fwd_ : inv_;
      const double angle = double(sign) * 2.0 * std::numbers::pi / double(len);
      const cplx wlen(std::cos(angle), std::sin(angle));
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
      }
    }
  }
}

void FftPlan::execute(cplx* x, const std::vector<cplx>& twiddle) const noexcept {
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  // Butterflies on the interleaved (re, im) doubles that std::complex is
  // guaranteed to store. The twiddle product is spelled out: std::complex's
  // operator* adds a NaN check and a __muldc3 call that blocks vectorization,
  // and for finite operands it computes exactly these two expressions.
  double* d = reinterpret_cast<double*>(x);
  const double* stage = reinterpret_cast<const double*>(twiddle.data());
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      double* top = d + 2 * i;
      double* bot = d + 2 * (i + half);
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = stage[2 * k], wi = stage[2 * k + 1];
        const double br = bot[2 * k], bi = bot[2 * k + 1];
        const double vr = br * wr - bi * wi;
        const double vi = br * wi + bi * wr;
        const double ur = top[2 * k], ui = top[2 * k + 1];
        top[2 * k] = ur + vr;
        top[2 * k + 1] = ui + vi;
        bot[2 * k] = ur - vr;
        bot[2 * k + 1] = ui - vi;
      }
    }
    stage += 2 * half;
  }
}

void FftPlan::forward(cplx* x) const noexcept { execute(x, fwd_); }

void FftPlan::forward(std::vector<cplx>& x) const {
  MILBACK_REQUIRE(x.size() == n_, "FftPlan::forward: length != plan size");
  execute(x.data(), fwd_);
}

void FftPlan::inverse(cplx* x) const noexcept {
  execute(x, inv_);
  const double scale = 1.0 / double(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] *= scale;
}

void FftPlan::inverse(std::vector<cplx>& x) const {
  MILBACK_REQUIRE(x.size() == n_, "FftPlan::inverse: length != plan size");
  inverse(x.data());
}

const FftPlan& fft_plan(std::size_t n) {
  MILBACK_REQUIRE(is_pow2(n), "fft_plan: size must be a power of two");
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::unique_ptr<const FftPlan>> cache;
  static const obs::Counter hits = obs::Registry::global().counter("dsp.fft_plan.hits");
  static const obs::Counter misses =
      obs::Registry::global().counter("dsp.fft_plan.misses");
  const std::lock_guard<std::mutex> lock(mutex);
  auto& slot = cache[n];
  if (!slot) {
    misses.add();
    slot = std::make_unique<const FftPlan>(n);
  } else {
    hits.add();
  }
  return *slot;
}

std::size_t next_pow2(std::size_t n) {
  MILBACK_REQUIRE(n <= (std::size_t{1} << 62), "next_pow2: size out of range");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

std::vector<double> magnitude_spectrum(const std::vector<cplx>& spectrum) {
  std::vector<double> out(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = std::abs(spectrum[i]);
  MILBACK_ENSURE(out.size() == spectrum.size(), "magnitude_spectrum: one bin per input bin");
  return out;
}

}  // namespace milback::dsp
