// Observability thread-count invariance: with metrics and tracing enabled,
// the full churn scenario must export byte-identical metrics.jsonl (sim
// class) and Chrome trace JSON with MILBACK_SIM_THREADS=1 and =4. Everything
// recorded from worker threads merges through exact integer histograms and
// commutative counters, and exports sort canonically, so the worker count
// cannot leak into the deterministic telemetry.
//
// This suite matches the check.sh TSan stage's test regex ("ThreadInvariance"),
// so it doubles as the race-detector workload for the per-thread sinks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "milback/ap/localizer.hpp"
#include "milback/cell/cell_engine.hpp"
#include "milback/obs/exporters.hpp"
#include "milback/obs/registry.hpp"

namespace milback::cell {
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

CellEngine make_engine(CellConfig config = {}) {
  Rng env(5);
  return CellEngine(channel::BackscatterChannel::make_default(
                        channel::Environment::indoor_office(env)),
                    config);
}

/// Same 50-node churn scenario as the cell-engine invariance suite.
void build_churn_scenario(CellEngine& engine) {
  for (std::size_t i = 0; i < 50; ++i) {
    const double bearing = -55.0 + 2.2 * double(i);
    const double distance = 1.5 + 0.12 * double(i % 17);
    const double orientation = -20.0 + 2.0 * double(i % 21);
    const core::TrafficSpec spec{
        .pose = {distance, bearing, orientation},
        .arrival_rate_bps = 20e3 + 3e3 * double(i % 7),
        .burstiness = (i % 3 == 0) ? 0.0 : 1.0,
    };
    const double join = (i % 3 == 2) ? 0.02 + 0.001 * double(i) : 0.0;
    engine.add_node("tag-" + std::to_string(i), spec, join);
    if (i % 5 == 4) engine.schedule_leave(i, 0.10 + 0.002 * double(i));
    if (i % 4 == 1) {
      engine.schedule_move(i, 0.05 + 0.002 * double(i),
                           {distance + 1.0, bearing + 3.0, orientation});
    }
  }
  engine.schedule_blockage(0.08, 0.12, 18.0);
}

struct Exports {
  std::string metrics;
  std::string trace;
};

/// Runs the scenario under `threads` workers and returns the deterministic
/// export pair. Resets the registry first so each run starts from zero.
Exports run_and_export(const char* threads, CellConfig config = {}) {
  ScopedThreads guard(threads);
  obs::Registry::global().reset();
  auto engine = make_engine(config);
  build_churn_scenario(engine);
  engine.run(0.2, 1234);
  return {obs::metrics_jsonl(/*include_runtime=*/false),
          obs::chrome_trace_json()};
}

class ObsThreadInvariance : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true, true);
    // Warm-up pass: fills the process-wide FFT-plan and window caches so
    // dsp.*.hits/misses counters see identical cache state in both measured
    // runs (the caches persist across registry resets).
    ScopedThreads guard("2");
    auto engine = make_engine();
    build_churn_scenario(engine);
    engine.run(0.2, 1234);
  }
  void TearDown() override {
    obs::Registry::global().reset();
    obs::set_enabled(false, false);
  }
};

TEST_F(ObsThreadInvariance, ChurnScenarioExportsAreByteIdentical) {
  const Exports serial = run_and_export("1");
  const Exports parallel = run_and_export("4");
  // Sanity: telemetry is actually flowing.
  EXPECT_NE(serial.metrics.find("cell.events.join"), std::string::npos);
  EXPECT_NE(serial.metrics.find("cell.latency_s"), std::string::npos);
  EXPECT_NE(serial.trace.find("cell.sweep"), std::string::npos);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

Exports run_session_cell_and_export(const char* threads) {
  ScopedThreads guard(threads);
  obs::Registry::global().reset();
  CellConfig cfg;
  cfg.run_sessions = true;
  cfg.service_period_s = 0.02;
  auto engine = make_engine(cfg);
  engine.add_node("a", {.pose = {2.0, -30.0, 10.0}, .arrival_rate_bps = 80e3});
  engine.add_node("b", {.pose = {2.5, -5.0, -8.0}, .arrival_rate_bps = 80e3});
  engine.add_node("c", {.pose = {3.0, 10.0, 12.0}, .arrival_rate_bps = 80e3});
  engine.add_node("d", {.pose = {3.5, 35.0, 5.0}, .arrival_rate_bps = 80e3},
                  0.05);
  engine.schedule_move(1, 0.10, {2.7, -8.0, -8.0});
  engine.schedule_blockage(0.12, 0.16, 12.0);
  engine.run(0.2, 77);
  return {obs::metrics_jsonl(/*include_runtime=*/false),
          obs::chrome_trace_json()};
}

TEST_F(ObsThreadInvariance, SessionModeExportsAreByteIdentical) {
  // Session mode records from inside AdaptiveSession and the localizer —
  // the deepest instrumented call paths — while the fan-out runs on workers.
  // The localizer touches FFT sizes the churn warm-up never plans, so warm
  // the caches on this path too before measuring (cache hit/miss counters
  // must see identical cache state in both runs).
  (void)run_session_cell_and_export("2");
  const Exports serial = run_session_cell_and_export("1");
  const Exports parallel = run_session_cell_and_export("4");
  EXPECT_NE(serial.metrics.find("session.rounds"), std::string::npos);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

Exports run_nlos_cell_and_export(const char* threads) {
  ScopedThreads guard(threads);
  obs::Registry::global().reset();
  auto engine = make_engine();
  engine.set_multipath(channel::MultipathConfig::office_walls(21, 5));
  build_churn_scenario(engine);
  engine.run(0.2, 1234);
  // A reflector-aware NLoS fix on top of the same registry: drives the
  // loc.nlos_fallback counter and the ap.localize.nlos span (serial code,
  // but it must coexist with the worker-recorded channel counters).
  auto chan =
      channel::BackscatterChannel::make_default(channel::Environment::anechoic());
  channel::MultipathConfig corridor;
  corridor.walls.push_back({0.5, 0.9, 3.5, 0.9, 10.0});
  chan.set_multipath(corridor);
  chan.config().blockage_loss_db = 25.0;
  ap::LocalizerConfig cfg;
  cfg.reflector_aware = true;
  const ap::Localizer loc(cfg);
  Rng rng = Rng::stream(9, 0);
  (void)loc.localize(chan, {3.0, 0.0, 0.0}, rng);
  return {obs::metrics_jsonl(/*include_runtime=*/false),
          obs::chrome_trace_json()};
}

TEST_F(ObsThreadInvariance, NlosChurnExportsAreByteIdentical) {
  // The wall-scene churn records the path-census counters from inside the
  // worker fan-out (every budget query traces the PathSet); they must merge
  // commutatively like everything else.
  (void)run_nlos_cell_and_export("2");  // cache warm-up on this path
  const Exports serial = run_nlos_cell_and_export("1");
  const Exports parallel = run_nlos_cell_and_export("4");
  EXPECT_NE(serial.metrics.find("channel.paths_active"), std::string::npos);
  EXPECT_NE(serial.metrics.find("channel.blockage_sever"), std::string::npos);
  EXPECT_NE(serial.metrics.find("loc.nlos_fallback"), std::string::npos);
  EXPECT_NE(serial.trace.find("ap.localize.nlos"), std::string::npos);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

Exports run_mesh_cell_and_export(const char* threads) {
  ScopedThreads guard(threads);
  obs::Registry::global().reset();
  auto engine = make_engine();
  // Relay chain past the direct-coverage edge plus the churn fleet: relays
  // forward every sweep, the leave/blockage events trigger rediscoveries,
  // and the far tags hit the orphan counter whenever no route exists.
  engine.add_node("relay-a", {.pose = {8.0, 80.0, 12.0}, .arrival_rate_bps = 0.0});
  engine.add_node("dark-b", {.pose = {14.0, 80.0, 12.0}, .arrival_rate_bps = 40e3});
  engine.add_node("dark-c", {.pose = {20.0, 80.0, 12.0}, .arrival_rate_bps = 40e3});
  build_churn_scenario(engine);
  mesh::MeshConfig mc;
  mc.anchors = {{0, 8.0 * 0.17364817766693041, 8.0 * 0.984807753012208},
                {3, 1.5, 0.0}};
  engine.set_mesh(mc);
  engine.run(0.2, 1234);
  return {obs::metrics_jsonl(/*include_runtime=*/false),
          obs::chrome_trace_json()};
}

TEST_F(ObsThreadInvariance, MeshChurnExportsAreByteIdentical) {
  // The mesh counters record from the serial tail of dispatch_service (after
  // the worker fan-out) and the discover span closes at sim time — both must
  // export byte-identically at any worker count, alongside everything the
  // churn fleet records from inside the fan-out.
  (void)run_mesh_cell_and_export("2");  // cache warm-up on this path
  const Exports serial = run_mesh_cell_and_export("1");
  const Exports parallel = run_mesh_cell_and_export("4");
  // The engine's wall-clock spans record on every run but stay kRuntime,
  // so they never reach the deterministic export compared below.
  std::map<std::string, const obs::Registry::MetricSnapshot*> by_name;
  const auto snapshots = obs::Registry::global().metric_snapshots();
  for (const auto& m : snapshots) by_name[m.name] = &m;
  for (const char* name :
       {"cell.dispatch.join_ns", "cell.dispatch.leave_ns", "cell.dispatch.move_ns",
        "cell.dispatch.arrival_ns", "cell.dispatch.service_ns",
        "cell.dispatch.blockage_start_ns", "cell.dispatch.blockage_end_ns",
        "cell.mesh_sweep_ns"}) {
    SCOPED_TRACE(name);
    ASSERT_EQ(by_name.count(name), 1u);
    EXPECT_EQ(by_name[name]->cls, obs::MetricClass::kRuntime);
    EXPECT_GT(by_name[name]->hist.count, 0u);
    EXPECT_EQ(parallel.metrics.find(name), std::string::npos);
  }
  EXPECT_NE(serial.metrics.find("mesh.route_discovery"), std::string::npos);
  EXPECT_NE(serial.metrics.find("mesh.relay_forward"), std::string::npos);
  EXPECT_NE(serial.metrics.find("mesh.reroute"), std::string::npos);
  EXPECT_NE(serial.metrics.find("mesh.hop_count"), std::string::npos);
  EXPECT_NE(serial.trace.find("mesh.discover"), std::string::npos);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

TEST_F(ObsThreadInvariance, RepeatedRunsAreByteIdentical) {
  // Same thread count twice — catches ordering leaks that do not depend on
  // the worker count (e.g. unsorted trace buffers).
  const Exports first = run_and_export("4");
  const Exports second = run_and_export("4");
  EXPECT_EQ(first.metrics, second.metrics);
  EXPECT_EQ(first.trace, second.trace);
}

}  // namespace
}  // namespace milback::cell
