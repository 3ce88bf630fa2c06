#include "milback/sim/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "milback/core/contract.hpp"
#include "milback/obs/profile.hpp"
#include "milback/obs/registry.hpp"

namespace milback::sim {

namespace {

// Pool telemetry. `regions`/`tasks` are schedule-independent (kSim); which
// worker ran how many tasks is not, so the utilization metrics are kRuntime
// and stay out of the deterministic exports.
struct SimObs {
  obs::Counter regions;        ///< sim.regions — for_each calls dispatched.
  obs::Counter tasks;          ///< sim.tasks — total indices executed.
  obs::Counter steals;         ///< sim.steals — tasks pulled by helper threads.
  obs::Histogram worker_tasks; ///< sim.worker_tasks — tasks per worker/region.
  obs::Histogram region_ns;    ///< sim.region_ns — wall time per region.
};

const SimObs& sim_obs() {
  static const SimObs instance = [] {
    auto& r = obs::Registry::global();
    SimObs o;
    o.regions = r.counter("sim.regions");
    o.tasks = r.counter("sim.tasks");
    o.steals = r.counter("sim.steals", obs::MetricClass::kRuntime);
    o.worker_tasks = r.histogram("sim.worker_tasks",
                                 obs::HistogramSpec{1.0, 1.5, 40},
                                 obs::MetricClass::kRuntime);
    o.region_ns = r.histogram("sim.region_ns", obs::profile_ns_spec(),
                              obs::MetricClass::kRuntime);
    return o;
  }();
  return instance;
}

// One for_each call: the shared index counter and the first error. Lives on
// the caller's stack; helpers reach it only between claiming a hand-off and
// signalling done, and the caller waits for that signal before returning.
struct Region {
  Region(std::size_t count, const std::function<void(std::size_t)>& task)
      : n(count), fn(task) {}

  // Dynamic scheduling: workers pull the next free index. Completion order is
  // arbitrary, but each index runs exactly once and (per the class contract)
  // writes only its own slot, so results do not depend on the schedule. Any
  // exception, a task's or a metric merge's, becomes the region's error.
  void work(bool helper) noexcept {
    std::size_t executed = 0;
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
        ++executed;
      }
    } catch (...) {
      fail(std::current_exception());
    }
    try {
      if (executed > 0) {
        sim_obs().worker_tasks.record(double(executed));
        if (helper) sim_obs().steals.add(executed);
      }
      // A parked helper never exits (which would merge its metric sink), so
      // merge per region: the caller reads complete totals on return.
      if (helper) obs::Registry::global().flush_this_thread();
    } catch (...) {
      fail(std::current_exception());
    }
  }

  void fail(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::move(error);
    }
    // Park the shared index past the end so peers stop pulling new work.
    next.store(n, std::memory_order_relaxed);
  }

  const std::size_t n;
  const std::function<void(std::size_t)>& fn;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;  ///< Guarded by error_mutex.
};

// A parked helper thread. `state_` is both its hand-off slot and the word
// the helper (while idle) and its borrowing caller (while it runs) wait on.
// The caller waits on this word, not on anything in the Region, so a helper
// never touches a region after signalling done.
class Helper {
 public:
  Helper() : thread_([this] { loop(); }) {}
  ~Helper() {
    state_.store(kStop, std::memory_order_release);
    state_.notify_one();
    thread_.join();
  }
  Helper(const Helper&) = delete;
  Helper& operator=(const Helper&) = delete;

  /// Hands `region` to this (idle, borrowed) helper.
  void offer(Region& region) {
    region_ = &region;
    state_.store(kOffered, std::memory_order_release);
    state_.notify_one();
  }

  /// Takes the hand-off back if the helper has not claimed it yet.
  void retract_unstarted() noexcept {
    std::uint32_t offered = kOffered;
    state_.compare_exchange_strong(offered, kIdle, std::memory_order_relaxed);
  }

  /// Blocks until the helper is idle again; everything it wrote for the
  /// region (task results, flushed metrics) is visible afterwards.
  void wait_done() noexcept {
    for (std::uint32_t s; (s = state_.load(std::memory_order_acquire)) != kIdle;)
      state_.wait(s, std::memory_order_acquire);
  }

 private:
  enum : std::uint32_t { kIdle, kOffered, kRunning, kStop };

  void loop() {
    for (;;) {
      state_.wait(kIdle, std::memory_order_acquire);
      std::uint32_t s = kOffered;
      if (state_.compare_exchange_strong(s, kRunning, std::memory_order_acquire)) {
        region_->work(/*helper=*/true);
        state_.store(kIdle, std::memory_order_release);
        state_.notify_one();
      } else if (s == kStop) {
        return;
      }
      // Otherwise the caller retracted the offer first: park again.
    }
  }

  std::atomic<std::uint32_t> state_{kIdle};
  Region* region_ = nullptr;  ///< Written before kOffered, read after kRunning.
  std::thread thread_;        ///< Last: loop() uses the members above.
};

// Process-wide cache of helpers. It grows to the peak number in use at once
// (nested regions borrow their own) and joins them at static destruction.
class HelperPool {
 public:
  /// `k` helpers for one region: idle ones first, new ones for the rest, so
  /// every region gets its full worker count live at the same time.
  std::vector<Helper*> borrow(std::size_t k) {
    std::vector<Helper*> out;
    out.reserve(k);
    const std::lock_guard<std::mutex> lock(mutex_);
    while (out.size() < k && !idle_.empty()) {
      out.push_back(idle_.back());
      idle_.pop_back();
    }
    try {
      while (out.size() < k) {
        all_.push_back(std::make_unique<Helper>());
        out.push_back(all_.back().get());
      }
    } catch (...) {
      idle_.insert(idle_.end(), out.begin(), out.end());
      throw;
    }
    return out;
  }

  void give_back(const std::vector<Helper*>& helpers) {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.insert(idle_.end(), helpers.begin(), helpers.end());
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<Helper>> all_;  ///< Guarded by mutex_.
  std::vector<Helper*> idle_;                 ///< Guarded by mutex_.
};

HelperPool& helper_pool() {
  static HelperPool pool;
  return pool;
}

}  // namespace

// milback-analyze: no-contract(any requested value is valid; non-positive means resolve from env/hardware)
int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MILBACK_SIM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(std::min(v, 1024L));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void TrialRunner::for_each(std::size_t n,
                           const std::function<void(std::size_t)>& fn) const {
  MILBACK_REQUIRE(bool(fn), "TrialRunner::for_each: fn must be callable");
  if (n == 0) return;
  sim_obs().regions.add();
  sim_obs().tasks.add(n);
  const obs::ProfileScope region_profile(sim_obs().region_ns);

  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    sim_obs().worker_tasks.record(double(n));
    return;
  }

  Region region(n, fn);
  HelperPool& pool = helper_pool();
  std::vector<Helper*> helpers = pool.borrow(workers - 1);
  for (Helper* h : helpers) h->offer(region);
  region.work(/*helper=*/false);  // The calling thread is worker 0.
  // Every index is claimed now, so a helper that has not started yet would
  // find nothing to do: take its hand-off back rather than wait for it to
  // wake up, then wait for the helpers that did start.
  for (Helper* h : helpers) h->retract_unstarted();
  for (Helper* h : helpers) h->wait_done();
  pool.give_back(helpers);

  if (region.first_error) std::rethrow_exception(region.first_error);
}

}  // namespace milback::sim
