// Host-speed reference of the end-to-end benchmark.
//
// The benchmark runs on shared virtual machines whose speed swings by tens
// of percent from one second to the next: other tenants contend for the
// physical cores under the vCPUs, and CPU time stretches as much as wall
// time, so neither clock repeats. Raw wall times of the same code spread by
// 0.16-0.26 of their median between runs. Every host time the benchmark
// reports is therefore scaled by a fixed reference computation timed beside
// it: the segment's wall time times the reference's nominal time over its
// measured time. A slowdown that stretches the segment stretches the
// reference alike and cancels out.
//
// The reference must run at the same moment and on the same vCPU as the
// segment: one run right after each operation of a few milliseconds cut the
// spread between runs to 0.003-0.024, while one run between repetitions of
// a second left 0.06-0.10, because the speed moves within a second. A
// segment of seconds on several worker threads gets a sampler, a second
// TrialRunner task that repeats the reference while it runs. The reference
// is compiled into the benchmark and is independent of milback, so no
// change to the program moves it: a radix-2 FFT of 4096 complex doubles
// over a sine-filled buffer, the kind of work the radar pipeline does.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <mutex>
#include <numbers>
#include <thread>
#include <vector>

#include "e2e.hpp"
#include "milback/sim/trial_runner.hpp"

namespace e2e {

namespace {

constexpr std::size_t kFftSize = 4096;
constexpr int kTransforms = 3;
// Pause between two sampler runs: the sampler keeps one vCPU about a
// quarter busy.
constexpr auto kSamplerPause = std::chrono::microseconds(1500);

using Cplx = std::complex<double>;

void fill(Cplx* a, int r) {
  for (std::size_t i = 0; i < kFftSize; ++i) a[i] = {std::sin(0.01 * double(i) + double(r)), 0.5};
}

double transform(Cplx* a) {
  constexpr std::size_t n = kFftSize;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / double(len);
    const Cplx step(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const auto u = a[i + k];
        const auto v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= step;
      }
    }
  }
  return std::abs(a[n / 3]);
}

// Every reference time of the run, for host_slowdown().
struct ReferenceLog {
  std::mutex mu;
  std::vector<double> times_s;  // guarded by mu
};

ReferenceLog& reference_log() {
  static ReferenceLog log;
  return log;
}

}  // namespace

double reference_s() {
  thread_local std::vector<Cplx> buffer(kFftSize);
  Cplx* a = buffer.data();
  // The results feed a sink so the work cannot be elided.
  thread_local volatile double sink = 0.0;
  // The segment before may have evicted the buffer; one untimed fill brings
  // it back, so its footprint does not leak into the reference.
  fill(a, 0);
  const double t0 = wall_now_s();
  double acc = 0.0;
  for (int r = 0; r < kTransforms; ++r) {
    fill(a, r);
    // milback-analyze: no-reduction(sink for the reference; never reported)
    acc += transform(a);
  }
  const double elapsed = wall_now_s() - t0;
  sink = sink + acc;
  auto& log = reference_log();
  const std::lock_guard lock(log.mu);
  log.times_s.push_back(elapsed);
  return elapsed;
}

double timed_s(const std::function<void()>& fn) {
  // A segment inside another (an operation inside a warm-up set-up) runs no
  // reference of its own: the enclosing segment's reference scales it, and
  // the outer time must not hold reference runs.
  thread_local bool inside = false;
  const double t0 = wall_now_s();
  if (inside) {
    fn();
    return wall_now_s() - t0;
  }
  struct Enter {
    explicit Enter(bool& flag) : flag_(flag) { flag_ = true; }
    ~Enter() { flag_ = false; }
    Enter(const Enter&) = delete;
    Enter& operator=(const Enter&) = delete;
    bool& flag_;
  };
  double wall = 0.0;
  {
    const Enter enter(inside);
    fn();
    wall = wall_now_s() - t0;
  }
  return wall * kReferenceNominalS / reference_s();
}

double sampled_s(const std::function<void()>& fn) {
  // Two tasks on two workers: fn and the sampler, which repeats the
  // reference until fn is done. `done` is set on every path out of fn, so
  // the sampler always stops, whichever worker pulls which task; for_each
  // joins both and rethrows an exception of fn.
  std::atomic<bool> done{false};
  std::vector<double> samples;  // written by the sampler task only
  double wall = 0.0;            // written by the fn task only
  milback::sim::TrialRunner(2).for_each(2, [&](std::size_t task) {
    if (task == 1) {
      while (!done.load(std::memory_order_acquire)) {
        samples.push_back(reference_s());
        std::this_thread::sleep_for(kSamplerPause);
      }
      return;
    }
    struct Finish {
      explicit Finish(std::atomic<bool>& flag) : flag_(flag) {}
      ~Finish() { flag_.store(true, std::memory_order_release); }
      Finish(const Finish&) = delete;
      Finish& operator=(const Finish&) = delete;
      std::atomic<bool>& flag_;
    };
    const Finish finish(done);
    const double t0 = wall_now_s();
    fn();
    wall = wall_now_s() - t0;
  });
  // A segment shorter than one reference run is scaled like timed_s().
  if (samples.empty()) samples.push_back(reference_s());
  return wall * kReferenceNominalS / mean(samples);
}

double host_slowdown() {
  auto& log = reference_log();
  const std::lock_guard lock(log.mu);
  return median(log.times_s) / kReferenceNominalS;
}

}  // namespace e2e
