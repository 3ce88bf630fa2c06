// Planned radix-2 FFT: precomputed bit-reversal permutation and per-stage
// twiddle tables, executed in place on caller-owned buffers with zero
// per-call allocation. This is the only transform in the tree: the AP's
// range FFTs (radar/range_fft) and the orientation profiler's IFFT back to
// reflected power vs chirp frequency (radar/spectrum_profile) both run it.
//
// Why a plan layer: the AP digests a 5 x 18 us Field-2 burst (10 range FFTs)
// per localization, and the Monte-Carlo sweeps run thousands of trials per
// figure. Recomputing every twiddle factor with a complex multiply per
// butterfly, and allocating an output vector per call, would repeat the same
// setup for each of them; a plan amortizes it across the run.
//
// Accuracy policy: the twiddle tables are generated with the `w *= wlen`
// recurrence of the textbook iterative Cooley-Tukey loop, so planned
// transforms are bit-identical to that reference (tests/dsp/test_fft_plan.cpp
// pins this). The butterfly is written as real arithmetic on the interleaved
// doubles; for finite inputs it is bit-identical to std::complex's operator*
// (the build is ISO C++20, so nothing contracts to FMA), without that
// operator's NaN recovery path.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace milback::dsp {

using cplx = std::complex<double>;

/// A reusable transform plan for one power-of-two size.
///
/// Construction does all trigonometry (2(n-1) twiddles) and index work once;
/// `forward`/`inverse` then run butterflies with table lookups only. A plan
/// is immutable after construction and therefore safe to share across
/// threads (see `fft_plan` for the process-wide cache).
class FftPlan {
 public:
  /// Builds the plan for size `n`. Throws std::invalid_argument unless `n`
  /// is a nonzero power of two.
  explicit FftPlan(std::size_t n);

  /// Transform size this plan was built for.
  std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT (no normalization) of exactly `size()` samples.
  /// The unchecked pointer overloads are the zero-overhead hot path; the
  /// vector overloads validate the length.
  void forward(cplx* x) const noexcept;
  void forward(std::vector<cplx>& x) const;

  /// In-place inverse DFT with 1/N normalization.
  void inverse(cplx* x) const noexcept;
  void inverse(std::vector<cplx>& x) const;

 private:
  void execute(cplx* x, const std::vector<cplx>& twiddle) const noexcept;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  ///< Precomputed permutation targets.
  std::vector<cplx> fwd_;  ///< Per-stage forward twiddles, concatenated (n-1).
  std::vector<cplx> inv_;  ///< Per-stage inverse twiddles, concatenated (n-1).
};

/// Process-wide, thread-safe plan cache. Returns a reference to the shared
/// immutable plan for size `n`, building it on first use; the reference
/// stays valid for the program lifetime. Plans are pure functions of `n`, so
/// results are bit-identical no matter which thread (or how many
/// sim::TrialRunner workers) first populated the cache.
const FftPlan& fft_plan(std::size_t n);

/// Smallest power of two >= n (n >= 1). next_pow2(0) == 1.
std::size_t next_pow2(std::size_t n);

/// True if n is a nonzero power of two.
bool is_pow2(std::size_t n) noexcept;

/// |X[k]| for each bin.
std::vector<double> magnitude_spectrum(const std::vector<cplx>& spectrum);

}  // namespace milback::dsp
