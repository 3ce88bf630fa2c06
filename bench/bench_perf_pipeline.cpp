// Performance benchmarks (google-benchmark) for the hot AP-side DSP paths:
// can the localization and communication pipelines run at protocol rate?
// A Field-2 burst is 5 x 18 us = 90 us of air time; the full localization
// pipeline must process it in well under a packet period to keep up.
//
// The BM_Kernel_* pairs compare each planned kernel against an inline copy
// of the pre-plan implementation (per-call twiddle recomputation, per-sample
// trig, per-call std::normal_distribution). The legacy paths no longer exist
// in src/, so the reference lives here to keep the speedup measurable.
//
// `bench_perf_pipeline --json [path]` additionally writes the google-benchmark
// JSON report (default BENCH_perf_pipeline.json) for scripts/bench_compare.py.
#include <benchmark/benchmark.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "milback/ap/localizer.hpp"
#include "milback/cell/cell_engine.hpp"
#include "milback/cell/multi_cell.hpp"
#include "milback/ap/orientation_sensor.hpp"
#include "milback/ap/uplink_receiver.hpp"
#include "milback/core/link.hpp"
#include "milback/dsp/fft.hpp"
#include "milback/mesh/neighbor_table.hpp"
#include "milback/mesh/routing.hpp"
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
// Pipeline-level benchmarks (names are stable: bench_compare.py keys on them).
// ---------------------------------------------------------------------------

void BM_Fft1024(benchmark::State& state) {
  Rng rng(1);
  std::vector<dsp::cplx> x(1024);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  for (auto _ : state) {
    auto y = dsp::fft(x);
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

void BM_FullLocalization(benchmark::State& state) {
  Rng env_rng(4);
  const auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng));
  const ap::Localizer loc;
  Rng rng(5);
  const channel::NodePose pose{3.0, 0.0, 10.0};
  for (auto _ : state) {
    auto r = loc.localize(chan, pose, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FullLocalization)->Unit(benchmark::kMillisecond);

void BM_NlosLocalization(benchmark::State& state) {
  // Reflector-aware fix under full direct-path blockage: the worst-case
  // localization cost (two full pipeline passes — node-steered, then
  // re-steered at the wall — plus the unfold).
  auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::anechoic());
  channel::MultipathConfig mp;
  mp.walls.push_back({0.5, 0.9, 3.5, 0.9, 10.0});
  chan.set_multipath(mp);
  chan.config().blockage_loss_db = 25.0;
  ap::LocalizerConfig cfg;
  cfg.reflector_aware = true;
  const ap::Localizer loc(cfg);
  Rng rng(5);
  const channel::NodePose pose{3.0, 0.0, 0.0};
  for (auto _ : state) {
    auto r = loc.localize(chan, pose, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NlosLocalization)->Unit(benchmark::kMillisecond);

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

void BM_PacketExchange(benchmark::State& state) {
  Rng env_rng(11);
  const core::MilBackLink link(channel::BackscatterChannel::make_default(
                                   channel::Environment::indoor_office(env_rng)),
                               core::LinkConfig{});
  Rng rng(12), data(13);
  const auto bits = data.bits(512);
  for (auto _ : state) {
    auto r = link.run_packet({2.0, 0.0, 12.0}, core::LinkDirection::kUplink, bits, rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PacketExchange)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cell engine: discrete-event scheduling cost at varying population, and one
// full churn scenario (joins/leaves/moves/blockage) end to end.
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

void BM_CellEngine_ChurnScenario(benchmark::State& state) {
  for (auto _ : state) {
    auto engine = make_cell_engine();
    for (std::size_t i = 0; i < 16; ++i) {
      const double bearing = -40.0 + 5.0 * double(i);
      engine.add_node("t" + std::to_string(i),
                      {.pose = {2.0 + 0.15 * double(i), bearing, 12.0},
                       .arrival_rate_bps = 100e3},
                      (i % 4 == 3) ? 0.02 : 0.0);
      if (i % 5 == 4) engine.schedule_leave(i, 0.06);
      if (i % 3 == 1) {
        engine.schedule_move(i, 0.04, {3.0, bearing + 2.0, 12.0});
      }
    }
    engine.schedule_blockage(0.05, 0.07, 15.0);
    auto report = engine.run(0.1, 78);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CellEngine_ChurnScenario)->Unit(benchmark::kMillisecond);

void BM_CellEngine_SessionCell(benchmark::State& state) {
  cell::CellConfig cfg;
  cfg.run_sessions = true;
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

// Mesh route discovery: neighbor-table build (O(N^2) pairwise link budgets
// with the distance prefilter) plus the bounded-TTL flood, for a 256-node
// corridor where only the first few columns are AP-direct. This is the work
// a churn event re-triggers, so its cost gates how much node mobility a
// mesh cell can absorb per sweep.
void BM_MeshRouting(benchmark::State& state) {
  const std::size_t n = 256;
  std::vector<double> x(n), y(n);
  std::vector<std::uint8_t> alive(n, 1), direct(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    // 8-wide corridor, 4 m pitch in x, 3 m in y; the first three columns
    // (x <= 8 m) are inside direct coverage.
    x[i] = 2.0 + 4.0 * double(i / 8);
    y[i] = 3.0 * double(i % 8);
    direct[i] = x[i] <= 8.0 ? 1 : 0;
  }
  const mesh::MeshConfig cfg;
  const channel::MultipathConfig scene;
  for (auto _ : state) {
    auto table = mesh::build_neighbor_table(cfg, scene, 0.0, 0.0, x, y, alive,
                                            /*time_s=*/0.0);
    auto routes = mesh::build_routes(table, direct, /*max_ttl=*/12);
    benchmark::DoNotOptimize(table);
    benchmark::DoNotOptimize(routes);
  }
}
BENCHMARK(BM_MeshRouting)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Multi-cell engine: sharded campus/city scenarios. Sweep periods are pinned
// so the work per configuration is a fixed number of service sweeps — these
// benches measure the SoA/pool/shard machinery at scale, not service detail.
// The big configurations run one iteration per measurement: a full run is
// seconds of work, which is sample enough for the 15% regression gate.
// ---------------------------------------------------------------------------

/// `cells` x `nodes_per_cell` grid campus: reuse-4, every 50th node roams to
/// the horizontally adjacent AP mid-run.
cell::MultiCellEngine make_campus(std::size_t cells, std::size_t nodes_per_cell) {
  Rng env_rng(14);
  cell::MultiCellConfig cfg;
  const std::size_t side = std::size_t(std::ceil(std::sqrt(double(cells))));
  for (std::size_t c = 0; c < cells; ++c) {
    cfg.aps.push_back({40.0 * double(c % side), 40.0 * double(c / side)});
  }
  cfg.coverage_radius_m = 15.0;
  cfg.epoch_s = 0.05;
  cfg.frequency_channels = 4;
  cfg.cell.service_period_s = 0.05;
  cell::MultiCellEngine engine(
      channel::BackscatterChannel::make_default(
          channel::Environment::indoor_office(env_rng)),
      std::move(cfg));
  engine.reserve_nodes(nodes_per_cell);
  const std::size_t total = cells * nodes_per_cell;
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t home = i % cells;
    const double hx = 40.0 * double(home % side);
    const double hy = 40.0 * double(home / side);
    const double px = hx + 0.5 + 0.05 * double(i % 37);
    const double py = hy + 0.07 * double(i % 41) - 1.5;
    const double orient = -20.0 + 1.7 * double(i % 25);
    engine.add_node("n" + std::to_string(i), {px, py, orient},
                    5e3 + 1e3 * double(i % 3));
    if (i % 50 == 7 && cells > 1) {
      const double tx = (home % side == 0) ? hx + 37.0 : hx - 37.0;
      engine.schedule_waypoint(i, 0.06, {tx, py, orient});
    }
  }
  return engine;
}

void BM_MultiCell_4x1k(benchmark::State& state) {
  for (auto _ : state) {
    auto engine = make_campus(4, 1000);
    auto report = engine.run(0.1, 91);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_MultiCell_4x1k)->Unit(benchmark::kMillisecond);

void BM_MultiCell_16x10k(benchmark::State& state) {
  for (auto _ : state) {
    auto engine = make_campus(16, 10000);
    auto report = engine.run(0.1, 92);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_MultiCell_16x10k)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MultiCell_Campus100k(benchmark::State& state) {
  for (auto _ : state) {
    auto engine = make_campus(25, 4000);
    auto report = engine.run(0.1, 93);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_MultiCell_Campus100k)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MultiCell_MemoryPerNode(benchmark::State& state) {
  // The committed per-node byte budget (README "Campus-scale scenarios"):
  // simulation state of the 16 x 10k campus after a full run, divided by
  // the population. Covers node columns, pooled chunk/latency chains and
  // the pooled event queues; the global id table (one interned name per
  // unique node id process-wide) is shared state outside the budget.
  double bytes_per_node = 0.0;
  for (auto _ : state) {
    auto engine = make_campus(16, 10000);
    auto report = engine.run(0.1, 94);
    benchmark::DoNotOptimize(report);
    bytes_per_node = double(engine.memory_bytes()) / double(16 * 10000);
  }
  state.counters["bytes_per_node"] = bytes_per_node;
}
BENCHMARK(BM_MultiCell_MemoryPerNode)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Observability overhead. The instrumented engines above all run with
// telemetry off (the default), so their numbers already price the null-sink
// branch into every hot path; these benches isolate the cost directly.
// ---------------------------------------------------------------------------

// The churn scenario with telemetry fully enabled vs the disabled default.
// The pair bounds the end-to-end overhead of the obs layer; the disabled
// run must stay within a few percent of BM_CellEngine_ChurnScenario.
void run_churn_scenario() {
  auto engine = make_cell_engine();
  for (std::size_t i = 0; i < 16; ++i) {
    const double bearing = -40.0 + 5.0 * double(i);
    engine.add_node("t" + std::to_string(i),
                    {.pose = {2.0 + 0.15 * double(i), bearing, 12.0},
                     .arrival_rate_bps = 100e3},
                    (i % 4 == 3) ? 0.02 : 0.0);
    if (i % 5 == 4) engine.schedule_leave(i, 0.06);
    if (i % 3 == 1) {
      engine.schedule_move(i, 0.04, {3.0, bearing + 2.0, 12.0});
    }
  }
  engine.schedule_blockage(0.05, 0.07, 15.0);
  auto report = engine.run(0.1, 78);
  benchmark::DoNotOptimize(report);
}

void BM_Obs_DisabledOverhead(benchmark::State& state) {
  obs::set_enabled(false, false);
  for (auto _ : state) run_churn_scenario();
}
BENCHMARK(BM_Obs_DisabledOverhead)->Unit(benchmark::kMillisecond);

void BM_Obs_EnabledChurn(benchmark::State& state) {
  obs::set_enabled(true, true);
  obs::Registry::global().reset();
  for (auto _ : state) run_churn_scenario();
  obs::Registry::global().reset();
  obs::set_enabled(false, false);
}
BENCHMARK(BM_Obs_EnabledChurn)->Unit(benchmark::kMillisecond);

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
// Per-kernel before/after pairs.
// ---------------------------------------------------------------------------

// Longest chirp at Field-1 rates: 45 us at 50 MHz.
constexpr std::size_t kChirpSamples = 2250;

// Pre-plan FFT: recompute twiddles with a trig call per stage and a complex
// multiply chain per butterfly group (the deleted dsp::fft internals).
void naive_fft_inplace(std::vector<dsp::cplx>& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / double(len);
    const dsp::cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      dsp::cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const dsp::cplx u = a[i + k];
        const dsp::cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<dsp::cplx> random_complex(std::size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<dsp::cplx> x(n);
  for (auto& v : x) v = rng.complex_gaussian(1.0);
  return x;
}

void BM_Kernel_Fft1024_Naive(benchmark::State& state) {
  const auto x = random_complex(1024, 21);
  std::vector<dsp::cplx> scratch(x.size());
  for (auto _ : state) {
    scratch = x;
    naive_fft_inplace(scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_Kernel_Fft1024_Naive);

void BM_Kernel_Fft1024_Planned(benchmark::State& state) {
  const auto x = random_complex(1024, 21);
  const auto& plan = dsp::fft_plan(x.size());
  std::vector<dsp::cplx> scratch(x.size());
  for (auto _ : state) {
    scratch = x;
    plan.forward(scratch.data());
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_Kernel_Fft1024_Planned);

void BM_Kernel_Phasor_Trig(benchmark::State& state) {
  const double phi0 = 0.37;
  const double step = 2.0 * std::numbers::pi * 1.2e6 / 50e6;
  std::vector<dsp::cplx> y(kChirpSamples);
  for (auto _ : state) {
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double ph = phi0 + step * double(i);
      y[i] = dsp::cplx{std::cos(ph), std::sin(ph)};
    }
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Kernel_Phasor_Trig);

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

void BM_Kernel_Noise_PerCall(benchmark::State& state) {
  // Pre-plan noise path: a fresh std::normal_distribution per call.
  std::mt19937_64 engine(99);
  std::vector<dsp::cplx> y(kChirpSamples);
  const double sigma = std::sqrt(1e-12 / 2.0);
  for (auto _ : state) {
    for (auto& v : y) {
      std::normal_distribution<double> dist(0.0, sigma);
      v = {dist(engine), dist(engine)};
    }
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Kernel_Noise_PerCall);

void BM_Kernel_Noise_Bulk(benchmark::State& state) {
  Rng rng(99);
  std::vector<dsp::cplx> y(kChirpSamples);
  for (auto _ : state) {
    rng.fill_complex_gaussian(y.data(), y.size(), 1e-12);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Kernel_Noise_Bulk);

// The cell engine's arrival pattern: derive a fresh stream per event and
// take one Gaussian from it (Noise_Bulk above is the long-stream pattern).
void BM_Rng_StreamOneGaussian(benchmark::State& state) {
  std::uint64_t event = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rng::stream(99, event++).gaussian());
  }
}
BENCHMARK(BM_Rng_StreamOneGaussian);

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

void BM_Kernel_Window900_Recompute(benchmark::State& state) {
  for (auto _ : state) {
    auto w = dsp::make_window(dsp::WindowType::kHann, 900);
    const double cg = dsp::coherent_gain(w);
    benchmark::DoNotOptimize(w.data());
    benchmark::DoNotOptimize(cg);
  }
}
BENCHMARK(BM_Kernel_Window900_Recompute);

void BM_Kernel_Window900_Cached(benchmark::State& state) {
  for (auto _ : state) {
    const auto& w = dsp::cached_window(dsp::WindowType::kHann, 900);
    benchmark::DoNotOptimize(&w);
  }
}
BENCHMARK(BM_Kernel_Window900_Cached);

}  // namespace

// Custom main: translate `--json [path]` into google-benchmark's reporter
// flags so check.sh and bench_compare.py get a stable JSON artifact.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string format_flag;
  for (auto it = args.begin() + 1; it != args.end();) {
    if (std::string_view(*it) == "--json") {
      it = args.erase(it);
      std::string path = "BENCH_perf_pipeline.json";
      if (it != args.end() && (*it)[0] != '-') {
        path = *it;
        it = args.erase(it);
      }
      out_flag = "--benchmark_out=" + path;
      format_flag = "--benchmark_out_format=json";
    } else {
      ++it;
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int count = int(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
