// Thread-count invariance: the sim engine's core guarantee is that the
// worker count is a pure performance knob. A Sweep over the physical link
// and a full network service round must produce bit-identical results with
// MILBACK_SIM_THREADS=1 and =4 — any divergence means a trial drew from
// shared state instead of its own (seed, point, trial) stream.
//
// This suite is also the designated TSan workload: run it under the `tsan`
// preset to prove the parallel path is race-free (see scripts/check.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "milback/cell/cell_engine.hpp"
#include "milback/core/link.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/window.hpp"
#include "milback/sim/sweep.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"

namespace milback {
namespace {

/// Scoped MILBACK_SIM_THREADS override (restores the prior value on exit).
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv(kName);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(kName, value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      ::setenv(kName, saved_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "MILBACK_SIM_THREADS";
  std::string saved_;
  bool had_value_ = false;
};

core::MilBackLink make_link(std::uint64_t env_seed) {
  Rng env(env_seed);
  return core::MilBackLink(channel::BackscatterChannel::make_default(
                               channel::Environment::indoor_office(env)),
                           core::LinkConfig{});
}

cell::CellEngine make_network(std::uint64_t env_seed) {
  Rng env(env_seed);
  cell::CellEngine net(channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env)));
  net.add_node("a", {.pose = {2.0, -25.0, 12.0}});
  net.add_node("b", {.pose = {2.5, 0.0, -12.0}});
  net.add_node("c", {.pose = {3.0, 5.0, 8.0}});  // shares a slot with "b"
  net.add_node("d", {.pose = {3.5, 30.0, -4.0}});
  return net;
}

TEST(ThreadInvariance, LinkSweepIsBitIdenticalAcrossWorkerCounts) {
  // The fig12a shape in miniature: a ranging sweep over distance, one
  // stateless stream per (point, trial) cell.
  const auto link = make_link(7);
  const sim::Sweep<double> sweep({1.0, 2.5, 4.0}, 6);
  const auto trial = [&](double distance_m, std::size_t p,
                         std::size_t t) -> std::optional<double> {
    auto rng = Rng::stream(42, p, t);
    const channel::NodePose pose{distance_m, rng.uniform(-25.0, 25.0), 10.0};
    const auto loc = link.localize(pose, rng);
    if (!loc.detected) return std::nullopt;
    return loc.range_m;
  };

  const auto serial = sweep.run<std::optional<double>>(sim::TrialRunner(1), trial);
  const auto parallel = sweep.run<std::optional<double>>(sim::TrialRunner(4), trial);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), parallel[p].size());
    for (std::size_t t = 0; t < serial[p].size(); ++t) {
      ASSERT_EQ(serial[p][t].has_value(), parallel[p][t].has_value())
          << "point " << p << " trial " << t;
      if (serial[p][t]) {
        EXPECT_EQ(*serial[p][t], *parallel[p][t])
            << "point " << p << " trial " << t;
      }
    }
  }
}

TEST(ThreadInvariance, UplinkRoundIsBitIdenticalAcrossWorkerCounts) {
  const auto run = [](const char* threads) {
    const ScopedThreads env(threads);
    const auto net = make_network(3);
    Rng rng(17);
    return net.run_uplink_round(200, rng);
  };

  const auto one = run("1");
  const auto four = run("4");

  EXPECT_EQ(one.sdm_slots, four.sdm_slots);
  EXPECT_EQ(one.aggregate_goodput_bps, four.aggregate_goodput_bps);
  ASSERT_EQ(one.nodes.size(), four.nodes.size());
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    const auto& a = one.nodes[i];
    const auto& b = four.nodes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.sdm_slot, b.sdm_slot);
    EXPECT_EQ(a.effective_snr_db, b.effective_snr_db);
    EXPECT_EQ(a.goodput_bps, b.goodput_bps);
    EXPECT_EQ(a.uplink.carriers_ok, b.uplink.carriers_ok);
    EXPECT_EQ(a.uplink.mode, b.uplink.mode);
    EXPECT_EQ(a.uplink.bits_sent, b.uplink.bits_sent);
    EXPECT_EQ(a.uplink.bit_errors, b.uplink.bit_errors);
    EXPECT_EQ(a.uplink.ber, b.uplink.ber);
    EXPECT_EQ(a.uplink.snr_db, b.uplink.snr_db);
    EXPECT_EQ(a.uplink.measured_snr_db, b.uplink.measured_snr_db);
    EXPECT_EQ(a.uplink.analytic_ber, b.uplink.analytic_ber);
    EXPECT_EQ(a.uplink.orientation_estimate_deg, b.uplink.orientation_estimate_deg);
    EXPECT_EQ(a.uplink.carriers.f_a_hz, b.uplink.carriers.f_a_hz);
    EXPECT_EQ(a.uplink.carriers.f_b_hz, b.uplink.carriers.f_b_hz);
  }
}

TEST(ThreadInvariance, DownlinkRoundIsBitIdenticalAcrossWorkerCounts) {
  const auto run = [](const char* threads) {
    const ScopedThreads env(threads);
    const auto net = make_network(3);
    Rng rng(19);
    return net.run_downlink_round(200, rng);
  };

  const auto one = run("1");
  const auto four = run("4");

  EXPECT_EQ(one.sdm_slots, four.sdm_slots);
  EXPECT_EQ(one.aggregate_goodput_bps, four.aggregate_goodput_bps);
  ASSERT_EQ(one.nodes.size(), four.nodes.size());
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    const auto& a = one.nodes[i];
    const auto& b = four.nodes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.sdm_slot, b.sdm_slot);
    EXPECT_EQ(a.effective_sinr_db, b.effective_sinr_db);
    EXPECT_EQ(a.goodput_bps, b.goodput_bps);
    EXPECT_EQ(a.downlink.carriers_ok, b.downlink.carriers_ok);
    EXPECT_EQ(a.downlink.mode, b.downlink.mode);
    EXPECT_EQ(a.downlink.bits_sent, b.downlink.bits_sent);
    EXPECT_EQ(a.downlink.bit_errors, b.downlink.bit_errors);
    EXPECT_EQ(a.downlink.ber, b.downlink.ber);
    EXPECT_EQ(a.downlink.sinr_db, b.downlink.sinr_db);
    EXPECT_EQ(a.downlink.analytic_ber, b.downlink.analytic_ber);
    EXPECT_EQ(a.downlink.orientation_estimate_deg,
              b.downlink.orientation_estimate_deg);
  }
}

TEST(ThreadInvariance, SharedFftPlanCacheKeepsSweepsBitIdentical) {
  // The FFT plan and window caches are process-wide and populated lazily:
  // a 4-worker sweep races its first chirps through cache construction while
  // a 1-worker sweep populates serially. Plans are pure functions of their
  // size, so every field produced through them must stay bit-identical --
  // and under the tsan preset this doubles as the race check on the caches.
  // Mixing FFT sizes per trial forces concurrent inserts of distinct keys.
  const sim::Sweep<std::size_t> sweep({256, 512, 1024, 2048}, 4);
  const auto trial = [](std::size_t fft_size, std::size_t p,
                        std::size_t t) -> double {
    auto rng = Rng::stream(77, p, t);
    std::vector<dsp::cplx> x(fft_size);
    for (auto& v : x) v = rng.complex_gaussian(1.0);
    dsp::fft_plan(fft_size).forward(x.data());
    const auto& w = dsp::cached_window(dsp::WindowType::kHann, fft_size / 2);
    double acc = w.coherent_gain_lin;
    for (const auto& v : x) acc += std::norm(v);
    return acc;
  };

  const auto serial = sweep.run<double>(sim::TrialRunner(1), trial);
  const auto parallel = sweep.run<double>(sim::TrialRunner(4), trial);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), parallel[p].size());
    for (std::size_t t = 0; t < serial[p].size(); ++t) {
      EXPECT_EQ(serial[p][t], parallel[p][t]) << "point " << p << " trial " << t;
    }
  }
}

TEST(ThreadInvariance, LocalizationFieldsAreBitIdenticalAcrossWorkerCounts) {
  // End-to-end version of the cache guarantee: full localization (window
  // cache + planned FFTs + bulk noise draws) must produce field-for-field
  // identical results at any worker count.
  const auto link = make_link(13);
  const sim::Sweep<double> sweep({1.5, 3.0}, 4);
  const auto trial = [&](double distance_m, std::size_t p,
                         std::size_t t) -> std::vector<double> {
    auto rng = Rng::stream(99, p, t);
    const channel::NodePose pose{distance_m, rng.uniform(-20.0, 20.0), 8.0};
    const auto loc = link.localize(pose, rng);
    return {double(loc.detected), loc.range_m, loc.angle_deg,
            loc.detection_snr_db, loc.aoa_offset_deg.value_or(-1e9)};
  };

  const auto serial = sweep.run<std::vector<double>>(sim::TrialRunner(1), trial);
  const auto parallel = sweep.run<std::vector<double>>(sim::TrialRunner(4), trial);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    for (std::size_t t = 0; t < serial[p].size(); ++t) {
      ASSERT_EQ(serial[p][t].size(), parallel[p][t].size());
      for (std::size_t f = 0; f < serial[p][t].size(); ++f) {
        EXPECT_EQ(serial[p][t][f], parallel[p][t][f])
            << "point " << p << " trial " << t << " field " << f;
      }
    }
  }
}

TEST(ThreadInvariance, RoundsConsumeOneDrawRegardlessOfThreads) {
  // The caller's Rng must advance identically whatever the worker count, or
  // downstream draws in a script would diverge.
  const auto next_draw_after_round = [](const char* threads) {
    const ScopedThreads env(threads);
    const auto net = make_network(3);
    Rng rng(23);
    (void)net.run_uplink_round(100, rng);
    return rng.engine()();
  };
  EXPECT_EQ(next_draw_after_round("1"), next_draw_after_round("4"));
}

}  // namespace
}  // namespace milback
