// TrialRunner: worker-count resolution, index coverage, determinism and
// error propagation of the parallel trial engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "milback/obs/registry.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"

namespace milback::sim {
namespace {

/// Scoped MILBACK_SIM_THREADS override (restores the prior value on exit).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(TrialRunner, ExplicitRequestWins) {
  const ScopedEnv env("MILBACK_SIM_THREADS", "7");
  EXPECT_EQ(resolve_thread_count(3), 3);
  EXPECT_EQ(TrialRunner(3).threads(), 3);
}

TEST(TrialRunner, EnvOverrideResolves) {
  const ScopedEnv env("MILBACK_SIM_THREADS", "5");
  EXPECT_EQ(resolve_thread_count(0), 5);
}

TEST(TrialRunner, MalformedEnvFallsBackToHardware) {
  for (const char* bad : {"abc", "-2", "0", "4x", ""}) {
    const ScopedEnv env("MILBACK_SIM_THREADS", bad);
    EXPECT_GE(resolve_thread_count(0), 1) << "env='" << bad << "'";
  }
}

TEST(TrialRunner, NoEnvResolvesToAtLeastOne) {
  const ScopedEnv env("MILBACK_SIM_THREADS", nullptr);
  EXPECT_GE(resolve_thread_count(0), 1);
}

TEST(TrialRunner, MapCoversEveryIndexInOrder) {
  const TrialRunner runner(4);
  const auto out =
      runner.map<std::size_t>(257, [](std::size_t i) { return i * 2 + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 2 + 1);
}

TEST(TrialRunner, ForEachRunsEachIndexExactlyOnce) {
  const TrialRunner runner(4);
  std::vector<std::atomic<int>> hits(100);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TrialRunner, ZeroTrialsIsANoOp) {
  const TrialRunner runner(4);
  runner.for_each(0, [](std::size_t) { FAIL() << "must not be called"; });
  EXPECT_TRUE(runner.map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(TrialRunner, SerialAndParallelAgreeBitIdentically) {
  // The canonical engine contract: trials draw from stateless per-index
  // streams, so results cannot depend on the worker count.
  const auto trial = [](std::size_t i) {
    auto rng = Rng::stream(99, i);
    double acc = 0.0;
    for (int k = 0; k < 10; ++k) acc += rng.gaussian();
    return acc;
  };
  const auto serial = TrialRunner(1).map<double>(64, trial);
  const auto parallel = TrialRunner(4).map<double>(64, trial);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

TEST(TrialRunner, ExceptionPropagatesFromWorker) {
  const TrialRunner runner(4);
  EXPECT_THROW(runner.for_each(32,
                               [](std::size_t i) {
                                 if (i == 7) throw std::runtime_error("trial 7");
                               }),
               std::runtime_error);
}

TEST(TrialRunner, ExceptionPropagatesInSerialMode) {
  const TrialRunner runner(1);
  EXPECT_THROW(
      runner.for_each(4, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

// Tasks 0 and 1 each raise their own flag, then wait for the other's: the
// region finishes only if both run at the same time.
void rendezvous(std::size_t i, std::atomic<bool> (&arrived)[2]) {
  arrived[i].store(true);
  while (!arrived[1 - i].load()) std::this_thread::yield();
}

TEST(TrialRunner, TwoWorkerRegionRunsTasksConcurrently) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<bool> arrived[2] = {false, false};
    TrialRunner(2).for_each(2, [&](std::size_t i) { rendezvous(i, arrived); });
    EXPECT_TRUE(arrived[0].load() && arrived[1].load());
  }
}

TEST(TrialRunner, NestedRegionGetsItsOwnLiveWorkers) {
  // The sampler pattern: task 1 runs beside task 0 until it is done, while
  // task 0 opens an inner 2-worker region whose tasks need each other.
  for (int round = 0; round < 20; ++round) {
    std::atomic<bool> outer_done{false};
    std::atomic<int> inner_tasks{0};
    TrialRunner(2).for_each(2, [&](std::size_t i) {
      if (i == 1) {
        while (!outer_done.load()) std::this_thread::yield();
        return;
      }
      std::atomic<bool> arrived[2] = {false, false};
      TrialRunner(2).for_each(2, [&](std::size_t k) {
        rendezvous(k, arrived);
        ++inner_tasks;
      });
      outer_done.store(true);
    });
    EXPECT_EQ(inner_tasks.load(), 2);
  }
}

TEST(TrialRunner, RegionsReuseTheSameHelperThread) {
  // Each region puts exactly one task on a helper. A thread_local count
  // reaches 500 only if one thread ran all of them; a fresh thread per
  // region (even one that recycles an old thread id) restarts at 1.
  thread_local bool on_caller = false;
  thread_local int tasks_on_this_thread = 0;
  on_caller = true;
  const TrialRunner runner(2);
  int helper_tasks_seen = 0;
  for (int region = 0; region < 500; ++region) {
    std::atomic<bool> arrived[2] = {false, false};
    runner.for_each(2, [&](std::size_t i) {
      rendezvous(i, arrived);
      if (!on_caller) helper_tasks_seen = ++tasks_on_this_thread;
    });
  }
  EXPECT_EQ(helper_tasks_seen, 500);
}

TEST(TrialRunner, HelperMetricsAreMergedWhenTheRegionReturns) {
  obs::set_enabled(true, false);
  auto& registry = obs::Registry::global();
  registry.reset();
  const obs::Counter counter = registry.counter("test.trial_runner.helper_adds");
  const auto caller = std::this_thread::get_id();
  // Only the task that lands on the helper records, so the total can only
  // reach the caller through the helper's end-of-region flush.
  const auto region = [&](std::uint64_t amount) {
    std::atomic<bool> arrived[2] = {false, false};
    TrialRunner(2).for_each(2, [&](std::size_t i) {
      rendezvous(i, arrived);
      if (std::this_thread::get_id() != caller) counter.add(amount);
    });
  };
  region(5);
  EXPECT_EQ(registry.counter_value("test.trial_runner.helper_adds"), 5u);
  region(7);
  EXPECT_EQ(registry.counter_value("test.trial_runner.helper_adds"), 12u);
  registry.reset();
  EXPECT_EQ(registry.counter_value("test.trial_runner.helper_adds"), 0u);
  region(3);  // Nothing recorded before the reset may come back.
  EXPECT_EQ(registry.counter_value("test.trial_runner.helper_adds"), 3u);
  registry.reset();
  obs::set_enabled(false, false);
}

TEST(TrialRunner, PoolStaysUsableAfterARegionThrows) {
  const TrialRunner runner(4);
  EXPECT_THROW(runner.for_each(64,
                               [](std::size_t i) {
                                 if (i % 3 == 0) throw std::runtime_error("trial");
                               }),
               std::runtime_error);
  std::vector<std::atomic<int>> hits(1000);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

}  // namespace
}  // namespace milback::sim
