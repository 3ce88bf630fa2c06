// Deterministic parallel Monte-Carlo execution.
//
// TrialRunner distributes independent trials over a worker pool while keeping
// the determinism guarantee of the serial loops it replaces: every trial must
// derive its randomness statelessly from its own index (`Rng::stream`), each
// trial writes only its own result slot, and results are always reduced in
// trial-index order. Under that contract the output is bit-identical whether
// the pool has 1 thread or N — scheduling order can never leak into results.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace milback::sim {

/// Resolves the worker count: `requested` if positive, else the
/// MILBACK_SIM_THREADS environment variable (positive integer), else the
/// hardware concurrency (at least 1).
int resolve_thread_count(int requested = 0);

/// Entry point to the process-wide pool of parked helper threads for
/// embarrassingly-parallel trials. A runner is a worker count: each
/// for_each borrows idle helpers from the shared cache (starting a new one
/// only when none is idle) and returns them when the region ends.
///
/// Thread-count invariance contract for callables passed in: they must not
/// touch shared mutable state, and any randomness must come from a stateless
/// per-index stream (`Rng::stream(seed, ..., index)`), never from a shared
/// generator.
class TrialRunner {
 public:
  /// `threads` <= 0 resolves via MILBACK_SIM_THREADS / hardware concurrency.
  explicit TrialRunner(int threads = 0) : threads_(resolve_thread_count(threads)) {}

  /// Number of workers this runner uses.
  int threads() const noexcept { return threads_; }

  /// Invokes fn(i) exactly once for every i in [0, n), in unspecified order,
  /// on min(threads(), n) threads that are live at the same time (the caller
  /// is one of them), so a task may wait on another task of the same region;
  /// that holds for nested regions too. Runs serially on the calling thread
  /// when the runner has one worker (or n <= 1). Metrics recorded by any
  /// task are merged into the registry when for_each returns. The first
  /// exception thrown by any trial is rethrown on the calling thread after
  /// all workers stop; the pool stays usable.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// Runs fn(i) -> T for every i in [0, n) and returns the results in index
  /// order (slot i holds fn(i), regardless of completion order).
  template <typename T, typename Fn>
  // milback-analyze: no-contract(thin index-order wrapper; for_each validates the callable and bounds)
  std::vector<T> map(std::size_t n, Fn&& fn) const {
    std::vector<T> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  int threads_;
};

}  // namespace milback::sim
