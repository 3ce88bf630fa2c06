// Deterministic observability: metrics registry (counters, gauges,
// log-bucketed histograms).
//
// The simulation layers (cell engine, trial runner, DSP kernels, the AP
// localization pipeline) record named metrics through lightweight handles.
// Recording is designed around two hard requirements:
//
//  1. Null-sink fast path. With telemetry disabled (the default — neither
//     MILBACK_METRICS_DIR nor an explicit set_enabled(true, ...) call), every
//     record operation is one relaxed atomic load and a branch. Hot loops can
//     stay instrumented unconditionally.
//
//  2. Thread-count invariance. Counters and histograms accumulate in
//     thread-local sinks that merge into the central registry in deterministic
//     key order when each sink's scope ends (worker-thread exit, or an
//     explicit flush on the calling thread). Counter sums and fixed-edge
//     bucket counts are integer adds, so the merged values are bit-identical
//     at any MILBACK_SIM_THREADS. Histograms deliberately do NOT track a
//     floating-point sum: summing doubles in thread-completion order would
//     leak the schedule into the last bits.
//
// Metrics carry a determinism class: kSim metrics are pure functions of
// (scenario, seed) and appear in the deterministic exports the
// thread-invariance tests compare; kRuntime metrics (worker utilization,
// wall-clock profiles) are scheduling-dependent by nature and are exported
// separately. Gauges are kSim but each one must have a single writer at a
// time, in an order fixed by the scenario (e.g. one cell engine's event loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace milback::obs {

/// Determinism class of a metric (see file comment).
enum class MetricClass : std::uint8_t {
  kSim = 0,      ///< Pure function of (scenario, seed); in deterministic exports.
  kRuntime = 1,  ///< Scheduling/wall-clock dependent; excluded from them.
};

/// Fixed log-spaced bucket edges: bucket k covers
/// [min_edge * growth^k, min_edge * growth^(k+1)), k in [0, buckets), plus an
/// underflow bucket below min_edge (and for x <= 0) and an overflow bucket at
/// the top. Edges are fixed at registration, so merging two histograms with
/// the same spec is an exact integer add per bucket.
struct HistogramSpec {
  double min_edge = 1e-9;     ///< Lower edge of the first finite bucket.
  double growth = 2.0;        ///< Edge ratio between consecutive buckets (> 1).
  std::size_t buckets = 64;   ///< Finite buckets (underflow/overflow are extra).
};

/// Index into the (buckets + 2)-slot count array for a sample; 0 is the
/// underflow bucket, spec.buckets + 1 the overflow bucket.
std::size_t bucket_index(const HistogramSpec& spec, double x) noexcept;

/// Lower edge of slot `index` (-inf for the underflow slot).
double bucket_lower_edge(const HistogramSpec& spec, std::size_t index) noexcept;

/// Upper edge of slot `index` (+inf for the overflow slot).
double bucket_upper_edge(const HistogramSpec& spec, std::size_t index) noexcept;

/// A histogram's merged value: bucket counts plus commutative min/max.
struct HistogramSnapshot {
  HistogramSpec spec{};
  std::uint64_t count = 0;
  double min = 0.0;                  ///< Smallest recorded sample (0 if empty).
  double max = 0.0;                  ///< Largest recorded sample (0 if empty).
  std::vector<std::uint64_t> counts; ///< spec.buckets + 2 slots.

  /// Records one sample (the same update the thread sinks apply).
  void record(double x);
};

/// Exact merge of two snapshots with identical specs (integer bucket adds +
/// commutative min/max); associative and commutative by construction.
HistogramSnapshot merge(const HistogramSnapshot& a, const HistogramSnapshot& b);

/// Bucket-interpolated quantile estimate, p in [0, 100]. Deterministic —
/// derived from integer bucket counts only. Returns 0 for an empty snapshot.
double quantile(const HistogramSnapshot& h, double p);

namespace detail {

inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

// Out-of-line sink operations — only reached when telemetry is enabled.
void sink_counter_add(std::uint32_t id, std::uint64_t n);
void sink_hist_record(std::uint32_t id, const HistogramSpec& spec, double x);
void sink_gauge_set(std::uint32_t id, double value);
void sink_trace_add(std::uint32_t name_id, double t_begin, double t_end,
                    std::uint64_t lane);

}  // namespace detail

/// Whether metric recording is live (one relaxed atomic + branch when not).
bool metrics_enabled() noexcept;

/// Whether trace-span recording is live.
bool trace_enabled() noexcept;

/// Programmatic override of both gates (tests and benches; the environment
/// variables only set the initial state).
void set_enabled(bool metrics, bool trace);

/// Monotonic named counter. Copyable handle; default-constructed handles are
/// inert. Safe to add from any thread (thread-local accumulation).
class Counter {
 public:
  Counter() = default;

  /// Adds `n`; no-op when metrics are disabled or the handle is inert.
  void add(std::uint64_t n = 1) const {
    if (!metrics_enabled() || id_ == detail::kInvalidId) return;
    detail::sink_counter_add(id_, n);
  }

  /// Whether the handle is bound to a registered metric.
  bool valid() const noexcept { return id_ != detail::kInvalidId; }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

/// Last-written-value gauge. Give each gauge one writer at a time, in an
/// order fixed by the scenario: a serial event loop, or parallel tasks that
/// each set only their own gauge, joined before anyone else sets it.
/// Concurrent setters of one gauge would race for the "last" value and break
/// export determinism.
class Gauge {
 public:
  Gauge() = default;

  /// Stores `value`; no-op when metrics are disabled or the handle is inert.
  void set(double value) const {
    if (!metrics_enabled() || id_ == detail::kInvalidId) return;
    detail::sink_gauge_set(id_, value);
  }

  bool valid() const noexcept { return id_ != detail::kInvalidId; }

 private:
  friend class Registry;
  explicit Gauge(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

/// Log-bucketed histogram handle. The spec travels with the handle so the
/// bucket index is computed without touching shared state.
class Histogram {
 public:
  Histogram() = default;

  /// Records one sample; no-op when metrics are disabled or the handle is
  /// inert.
  void record(double x) const {
    if (!metrics_enabled() || id_ == detail::kInvalidId) return;
    detail::sink_hist_record(id_, spec_, x);
  }

  bool valid() const noexcept { return id_ != detail::kInvalidId; }
  const HistogramSpec& spec() const noexcept { return spec_; }

 private:
  friend class Registry;
  Histogram(std::uint32_t id, const HistogramSpec& spec) : id_(id), spec_(spec) {}
  std::uint32_t id_ = detail::kInvalidId;
  HistogramSpec spec_{};
};

/// Process-wide metric registry. Handle creation interns the name (idempotent
/// — the same name always yields the same metric); recording goes through the
/// thread-local sinks. Exports sort by metric NAME, never by intern id, so
/// output bytes do not depend on which thread interned a name first.
class Registry {
 public:
  /// The process-wide registry (never destroyed).
  static Registry& global();

  /// Interns a counter. Re-registering an existing name returns the same
  /// metric; the class must match the original registration.
  Counter counter(std::string_view name, MetricClass cls = MetricClass::kSim);

  /// Interns a gauge.
  Gauge gauge(std::string_view name, MetricClass cls = MetricClass::kSim);

  /// Interns a histogram. The spec must match any prior registration of the
  /// same name (fixed edges are what make merges exact).
  Histogram histogram(std::string_view name, const HistogramSpec& spec = {},
                      MetricClass cls = MetricClass::kSim);

  /// Interns a trace-span name and returns its id (for obs::Span).
  std::uint32_t trace_name(std::string_view name);

  /// Merges the calling thread's sink into the central store. Worker threads
  /// flush automatically when they exit; call this on the owning thread
  /// before reading values or exporting.
  void flush_this_thread();

  /// Zeroes every value and drops all trace records; interned names, specs
  /// and outstanding handles stay valid. Flushes the calling thread first.
  void reset();

  // --- Read-side (flushes the calling thread first) ------------------------

  /// Value of a counter (0 if the name is unknown).
  std::uint64_t counter_value(std::string_view name);

  /// Value of a gauge (0 if unknown or never set).
  double gauge_value(std::string_view name);

  /// Snapshot of a histogram (empty snapshot if unknown).
  HistogramSnapshot histogram_snapshot(std::string_view name);

  /// Number of collected trace records.
  std::size_t trace_record_count();

  /// One metric's merged state, as consumed by the exporters and tests.
  struct MetricSnapshot {
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
    std::string name;
    Kind kind = Kind::kCounter;
    MetricClass cls = MetricClass::kSim;
    std::uint64_t counter = 0;     ///< kCounter value.
    double gauge = 0.0;            ///< kGauge value (0 if never set).
    bool gauge_is_set = false;     ///< Whether the gauge was ever written.
    HistogramSnapshot hist;        ///< kHistogram value.
  };

  /// One completed trace span.
  struct TraceSnapshot {
    std::string name;
    double t_begin = 0.0;  ///< Sim-time start (seconds or pipeline index).
    double t_end = 0.0;    ///< Sim-time end.
    std::uint64_t lane = 0;  ///< Virtual track (see obs::trace_lane).
  };

  /// Every metric, sorted by name — the canonical export order.
  std::vector<MetricSnapshot> metric_snapshots();

  /// Every collected span, sorted by (t_begin, t_end, lane, name). Identical
  /// span multisets therefore serialize to identical bytes regardless of
  /// which thread recorded which span.
  std::vector<TraceSnapshot> trace_snapshots();

 private:
  Registry() = default;
};

}  // namespace milback::obs
