// Performance microbenchmarks (google-benchmark) for the paths no
// bench/e2e workload runs: single DSP kernels, the standalone AP orientation
// sensor, a static cell at several populations, a session cell, and the
// telemetry and worker-pool primitives. bench/e2e is the performance gate;
// these are ungated and mean something only as medians of same-host runs
// alternated against the code they are compared with.
//
// Run every benchmark once, briefly:
//   bench_perf_pipeline --benchmark_min_time=0.01
// `--benchmark_out=FILE --benchmark_out_format=json` writes a JSON report.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "milback/ap/orientation_sensor.hpp"
#include "milback/ap/uplink_receiver.hpp"
#include "milback/cell/cell_engine.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/oscillator.hpp"
#include "milback/dsp/window.hpp"
#include "milback/obs/registry.hpp"
#include "milback/obs/span.hpp"
#include "milback/radar/background_subtraction.hpp"
#include "milback/radar/beat_synthesis.hpp"
#include "milback/sim/trial_runner.hpp"

using namespace milback;

namespace {

// ---------------------------------------------------------------------------
// AP pipeline stages.
// ---------------------------------------------------------------------------

void BM_Fft1024(benchmark::State& state) {
  Rng rng(1);
  std::vector<dsp::cplx> x(1024);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  const auto& plan = dsp::fft_plan(x.size());
  for (auto _ : state) {
    auto y = x;
    plan.forward(y);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft1024);

void BM_BeatSynthesisOneChirp(benchmark::State& state) {
  const auto chirp = radar::field2_chirp();
  const double fs = 50e6;
  const std::size_t n = radar::samples_per_chirp(chirp, fs);
  Rng rng(2);
  std::vector<radar::PathContribution> paths(std::size_t(state.range(0)));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    paths[i] = {.delay_s = 10e-9 * double(i + 1), .amplitude = 1e-4};
  }
  for (auto _ : state) {
    auto beat = radar::synthesize_beat(paths, chirp, fs, n, 1e-12, rng);
    benchmark::DoNotOptimize(beat);
  }
}
BENCHMARK(BM_BeatSynthesisOneChirp)->Arg(1)->Arg(8)->Arg(16);

void BM_BackgroundSubtraction(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<dsp::cplx>> spectra(5, std::vector<dsp::cplx>(1024));
  for (auto& s : spectra) {
    for (auto& v : s) v = rng.complex_gaussian(1.0);
  }
  for (auto _ : state) {
    auto sub = radar::background_subtract(spectra);
    benchmark::DoNotOptimize(sub);
  }
}
BENCHMARK(BM_BackgroundSubtraction);

void BM_OrientationAtAp(benchmark::State& state) {
  Rng env_rng(6);
  const auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng));
  const ap::ApOrientationSensor sensor;
  Rng rng(7);
  const channel::NodePose pose{2.0, 0.0, 12.0};
  for (auto _ : state) {
    auto r = sensor.estimate(chan, pose, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OrientationAtAp)->Unit(benchmark::kMillisecond);

void BM_UplinkBurst1kBits(benchmark::State& state) {
  Rng env_rng(8);
  const auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng));
  const ap::UplinkReceiver rx;
  const auto sel = ap::select_carriers(chan.fsa(), 15.0, 200e6);
  Rng data(9);
  auto symbols = core::uplink_pilot(rx.config().pilot_symbols);
  const auto payload = core::symbols_from_bits(data.bits(1000));
  symbols.insert(symbols.end(), payload.begin(), payload.end());
  const auto schedule = node::build_uplink_schedule(symbols);
  Rng rng(10);
  const channel::NodePose pose{3.0, 0.0, 15.0};
  for (auto _ : state) {
    auto r = rx.receive(chan, pose, *sel, schedule, rf::RfSwitchConfig{}, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_UplinkBurst1kBits)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cell engine: a static cell at 4 and 16 nodes (the worker-count scan of
// ROADMAP item 2 runs /4 at 1 and 4 workers) and a cell that runs sessions.
// ---------------------------------------------------------------------------

cell::CellEngine make_cell_engine(cell::CellConfig cfg = {}) {
  Rng env_rng(14);
  return cell::CellEngine(channel::BackscatterChannel::make_default(
                              channel::Environment::indoor_office(env_rng)),
                          cfg);
}

void BM_CellEngine_StaticCell(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  for (auto _ : state) {
    auto engine = make_cell_engine();
    for (std::size_t i = 0; i < n; ++i) {
      engine.add_node("t" + std::to_string(i),
                      {.pose = {2.0 + 0.1 * double(i % 8),
                                -40.0 + 80.0 * double(i) / double(n), 12.0},
                       .arrival_rate_bps = 100e3});
    }
    auto report = engine.run(0.1, 77);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CellEngine_StaticCell)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_CellEngine_SessionCell(benchmark::State& state) {
  cell::CellConfig cfg;
  cfg.sessions.emplace();
  cfg.service_period_s = 0.01;
  for (auto _ : state) {
    auto engine = make_cell_engine(cfg);
    engine.add_node("a", {.pose = {2.0, -20.0, 10.0}, .arrival_rate_bps = 200e3});
    engine.add_node("b", {.pose = {3.0, 15.0, -8.0}, .arrival_rate_bps = 200e3});
    auto report = engine.run(0.05, 79);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CellEngine_SessionCell)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Observability primitives. The end-to-end cost of tracing is each bench/e2e
// workload's trace.overhead_ratio.
// ---------------------------------------------------------------------------

// Raw per-record cost of the three primitives with telemetry off: each call
// must reduce to one relaxed atomic load and a branch.
void BM_Obs_CounterHistSpan_Disabled(benchmark::State& state) {
  obs::set_enabled(false, false);
  auto c = obs::Registry::global().counter("bench.obs.counter");
  auto h = obs::Registry::global().histogram("bench.obs.hist");
  const auto span_id = obs::Registry::global().trace_name("bench.obs.span");
  double t = 0.0;
  for (auto _ : state) {
    c.add();
    h.record(t);
    obs::Span s(span_id, t);
    s.end(t + 1e-6);
    // milback-analyze: no-reduction(single-thread benchmark clock ramp in fixed iteration order; not an aggregated statistic)
    t += 1e-6;
  }
  benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_Obs_CounterHistSpan_Disabled);

void BM_Obs_CounterHist_Enabled(benchmark::State& state) {
  obs::set_enabled(true, false);
  obs::Registry::global().reset();
  auto c = obs::Registry::global().counter("bench.obs.counter");
  auto h = obs::Registry::global().histogram("bench.obs.hist");
  double t = 0.0;
  for (auto _ : state) {
    c.add();
    h.record(t);
    // milback-analyze: no-reduction(single-thread benchmark clock ramp in fixed iteration order; not an aggregated statistic)
    t += 1e-6;
  }
  benchmark::DoNotOptimize(t);
  obs::Registry::global().reset();
  obs::set_enabled(false, false);
}
BENCHMARK(BM_Obs_CounterHist_Enabled);

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

// Longest chirp at Field-1 rates: 45 us at 50 MHz.
constexpr std::size_t kChirpSamples = 2250;
// One Field-2 localization chirp's beat, per RX.
constexpr std::size_t kBeatSamples = 900;

void BM_Kernel_Phasor_Rotated(benchmark::State& state) {
  const double phi0 = 0.37;
  const double step = 2.0 * std::numbers::pi * 1.2e6 / 50e6;
  std::vector<dsp::cplx> y(kChirpSamples);
  for (auto _ : state) {
    dsp::PhasorOscillator osc(phi0, step);
    for (auto& v : y) v = osc.next();
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Kernel_Phasor_Rotated);

void BM_Kernel_Noise_Bulk(benchmark::State& state) {
  Rng rng(99);
  std::vector<dsp::cplx> y(kChirpSamples);
  for (auto _ : state) {
    rng.fill_complex_gaussian(y.data(), y.size(), 1e-12);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Kernel_Noise_Bulk);

// A skipped beat's noise block (the localizer's non-AoA chirps): the same
// polar draws as Noise_Bulk without the log/sqrt or a store.
void BM_Kernel_Noise_Discard(benchmark::State& state) {
  Rng rng(99);
  for (auto _ : state) {
    rng.discard_complex_gaussian(kBeatSamples);
    benchmark::DoNotOptimize(rng);
  }
}
BENCHMARK(BM_Kernel_Noise_Discard);

// The envelope detector's per-sample output noise: one real Gaussian block.
void BM_Kernel_Gaussian_Bulk(benchmark::State& state) {
  Rng rng(99);
  std::vector<double> y(kBeatSamples);
  for (auto _ : state) {
    rng.fill_gaussian(y.data(), y.size(), 1e-3);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Kernel_Gaussian_Bulk);

// The cell engine's arrival pattern: derive a fresh stream per event and
// take one Gaussian from it (Noise_Bulk above is the long-stream pattern).
void BM_Rng_StreamOneGaussian(benchmark::State& state) {
  std::uint64_t event = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rng::stream(99, event++).gaussian());
  }
}
BENCHMARK(BM_Rng_StreamOneGaussian);

// The same draws in a batch, as the cell engine's arrival pass takes them:
// K stream keys, one Gaussian each from Rng::first_gaussians (items = keys).
void BM_Rng_FirstGaussians(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::uint64_t event = 0;
  std::vector<std::uint64_t> keys(k);
  std::vector<double> out(k);
  for (auto _ : state) {
    for (auto& key : keys) key = Rng::stream_key(99, event++);
    Rng::first_gaussians(keys, 0.0, 1.0, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(k));
}
BENCHMARK(BM_Rng_FirstGaussians)->Arg(1)->Arg(2)->Arg(64)->Arg(4000);

// TrialRunner region overhead at 1, 2 and 4 workers: one region of no-op
// tasks (pure hand-off cost) and one of 64 ~1 us tasks (the cell sweep's
// shape: a few dozen short budget probes per region).
void BM_Sim_Region(benchmark::State& state) {
  const sim::TrialRunner runner(int(state.range(0)));
  const double step = 1.0 + 1e-9 * double(state.range(0));  // run-time input
  std::vector<double> out(64);
  for (auto _ : state) {
    runner.for_each(out.size(), [](std::size_t) {});
    runner.for_each(out.size(), [&](std::size_t i) {
      double x = double(i);
      for (int k = 0; k < 400; ++k) x = x * step + 1e-9;
      out[i] = x;
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Sim_Region)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_Kernel_Window900_Cached(benchmark::State& state) {
  for (auto _ : state) {
    const auto& w = dsp::cached_window(dsp::WindowType::kHann, 900);
    benchmark::DoNotOptimize(&w);
  }
}
BENCHMARK(BM_Kernel_Window900_Cached);

}  // namespace
