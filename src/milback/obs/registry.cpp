#include "milback/obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "milback/core/contract.hpp"

namespace milback::obs {
namespace {

// ---------------------------------------------------------------------------
// Enable gates. Initialised from the environment before main so that the hot
// path never calls getenv; set_enabled() overrides at runtime.
// ---------------------------------------------------------------------------

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

std::atomic<bool>& metrics_flag() {
  // MILBACK_TRACE_DIR implies metrics too: spans are useless without the
  // registry that names them, and the exporters share one flush.
  static std::atomic<bool> flag{env_set("MILBACK_METRICS_DIR") ||
                                env_set("MILBACK_TRACE_DIR")};
  return flag;
}

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{env_set("MILBACK_TRACE_DIR")};
  return flag;
}

// ---------------------------------------------------------------------------
// Central store.
// ---------------------------------------------------------------------------

struct Entry {
  std::string name;
  Registry::MetricSnapshot::Kind kind = Registry::MetricSnapshot::Kind::kCounter;
  MetricClass cls = MetricClass::kSim;
  HistogramSpec spec{};
  // Merged values.
  std::uint64_t counter = 0;
  double gauge = 0.0;
  bool gauge_is_set = false;
  HistogramSnapshot hist;
};

struct TraceRecord {
  std::uint32_t name_id = 0;
  double t_begin = 0.0;
  double t_end = 0.0;
  std::uint64_t lane = 0;
};

struct Central {
  std::mutex mu;
  std::map<std::string, std::uint32_t, std::less<>> ids;  // name -> entry index
  std::vector<Entry> entries;
  std::map<std::string, std::uint32_t, std::less<>> trace_ids;
  std::vector<std::string> trace_names;
  std::vector<TraceRecord> trace_records;
};

Central& central() {
  static Central* c = new Central();  // leaked: outlives TLS destructors
  return *c;
}

// ---------------------------------------------------------------------------
// Thread-local sink. Counter/histogram updates land here without taking the
// central mutex; the sink merges into the central store when the thread exits
// (TLS destructor) or on an explicit flush. Merging is a pure integer add per
// key plus commutative min/max, so the merged state is independent of the
// order in which sinks flush — the thread-invariance guarantee.
// ---------------------------------------------------------------------------

struct ThreadSink {
  // Keyed by metric id; ids are dense so flat vectors indexed by id work, but
  // a map keeps sparse per-thread footprints small.
  std::map<std::uint32_t, std::uint64_t> counters;
  std::map<std::uint32_t, HistogramSnapshot> hists;
  std::vector<TraceRecord> traces;
  // Generation stamp: Registry::reset() bumps the central generation; sinks
  // from before the reset discard their pending values instead of merging
  // stale samples into the fresh epoch.
  std::uint64_t generation = 0;

  ~ThreadSink() { flush(); }

  void flush() {
    if (counters.empty() && hists.empty() && traces.empty()) return;
    Central& c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    if (generation == central_generation()) {
      for (const auto& [id, n] : counters) {
        MILBACK_REQUIRE(id < c.entries.size(), "obs: counter id out of range");
        c.entries[id].counter += n;
      }
      for (const auto& [id, h] : hists) {
        MILBACK_REQUIRE(id < c.entries.size(), "obs: histogram id out of range");
        c.entries[id].hist = merge(c.entries[id].hist, h);
      }
      c.trace_records.insert(c.trace_records.end(), traces.begin(), traces.end());
    }
    counters.clear();
    hists.clear();
    traces.clear();
  }

  static std::uint64_t& central_generation() {
    static std::uint64_t gen = 0;  // guarded by central().mu
    return gen;
  }
};

ThreadSink& sink() {
  thread_local ThreadSink s;
  if (s.counters.empty() && s.hists.empty() && s.traces.empty()) {
    // Empty sink: (re)stamp the generation so post-reset recordings merge.
    Central& c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    s.generation = ThreadSink::central_generation();
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bucket math.
// ---------------------------------------------------------------------------

// milback-analyze: no-contract(total by design: NaN and underflow samples map to bucket 0)
std::size_t bucket_index(const HistogramSpec& spec, double x) noexcept {
  if (!(x >= spec.min_edge)) return 0;  // underflow; also x<=0 and NaN
  // k = floor(log(x / min_edge) / log(growth)) picks the finite bucket; the
  // walk below corrects the (at most off-by-one) log round-off against the
  // exact pow()-computed edges, so every thread maps a sample to the same
  // bucket bit-for-bit.
  const double k = std::floor(std::log(x / spec.min_edge) / std::log(spec.growth));
  std::size_t ki = k < 0.0 ? 0 : static_cast<std::size_t>(k);
  if (ki > spec.buckets) ki = spec.buckets;
  while (ki > 0 && x < bucket_lower_edge(spec, ki + 1)) --ki;
  while (ki < spec.buckets && x >= bucket_upper_edge(spec, ki + 1)) ++ki;
  return ki >= spec.buckets ? spec.buckets + 1 : ki + 1;
}

double bucket_lower_edge(const HistogramSpec& spec, std::size_t index) noexcept {
  if (index == 0) return -std::numeric_limits<double>::infinity();
  return spec.min_edge * std::pow(spec.growth, static_cast<double>(index - 1));
}

double bucket_upper_edge(const HistogramSpec& spec, std::size_t index) noexcept {
  if (index >= spec.buckets + 1) return std::numeric_limits<double>::infinity();
  return spec.min_edge * std::pow(spec.growth, static_cast<double>(index));
}

void HistogramSnapshot::record(double x) {
  if (counts.empty()) counts.assign(spec.buckets + 2, 0);
  min = count == 0 ? x : std::min(min, x);
  max = count == 0 ? x : std::max(max, x);
  ++count;
  ++counts[bucket_index(spec, x)];
  MILBACK_ENSURE(counts.size() == spec.buckets + 2,
                 "HistogramSnapshot::record: bucket array tracks the spec");
}

HistogramSnapshot merge(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  MILBACK_REQUIRE(a.spec.min_edge == b.spec.min_edge &&
                      a.spec.growth == b.spec.growth &&
                      a.spec.buckets == b.spec.buckets,
                  "obs::merge: histogram specs differ");
  HistogramSnapshot out = a;
  out.count += b.count;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  if (out.counts.empty()) out.counts.assign(a.spec.buckets + 2, 0);
  MILBACK_REQUIRE(out.counts.size() == b.counts.size(),
                  "obs::merge: bucket-count mismatch");
  for (std::size_t i = 0; i < b.counts.size(); ++i) out.counts[i] += b.counts[i];
  return out;
}

double quantile(const HistogramSnapshot& h, double p) {
  if (h.count == 0 || h.counts.empty()) return 0.0;
  MILBACK_REQUIRE(p >= 0.0 && p <= 100.0, "obs::quantile: p outside [0,100]");
  // Rank of the target sample (nearest-rank with linear in-bucket spread).
  const double target = p / 100.0 * static_cast<double>(h.count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const std::uint64_t in_bucket = h.counts[i];
    if (in_bucket == 0) continue;
    const double first = static_cast<double>(seen);
    const double last = static_cast<double>(seen + in_bucket - 1);
    if (target <= last) {
      // Clamp the bucket's span by the observed min/max so single-bucket
      // histograms and the extreme slots stay finite and tight.
      double lo = std::max(bucket_lower_edge(h.spec, i), h.min);
      double hi = std::min(bucket_upper_edge(h.spec, i), h.max);
      if (!(lo <= hi)) return std::clamp((lo + hi) / 2.0, h.min, h.max);
      if (in_bucket == 1 || hi == lo) return lo;
      const double frac = (target - first) / (last - first);
      return lo + frac * (hi - lo);
    }
    seen += in_bucket;
  }
  return h.max;
}

// ---------------------------------------------------------------------------
// Gates + sinks.
// ---------------------------------------------------------------------------

bool metrics_enabled() noexcept {
  return metrics_flag().load(std::memory_order_relaxed);
}

bool trace_enabled() noexcept {
  return trace_flag().load(std::memory_order_relaxed);
}

void set_enabled(bool metrics, bool trace) {
  // Traces require the metrics plumbing (shared sinks), mirror the env rule.
  metrics_flag().store(metrics || trace, std::memory_order_relaxed);
  trace_flag().store(trace, std::memory_order_relaxed);
}

namespace detail {

void sink_counter_add(std::uint32_t id, std::uint64_t n) {
  sink().counters[id] += n;
}

void sink_hist_record(std::uint32_t id, const HistogramSpec& spec, double x) {
  HistogramSnapshot& h = sink().hists[id];
  if (h.counts.empty()) h.spec = spec;
  h.record(x);
}

void sink_gauge_set(std::uint32_t id, double value) {
  // Gauges are last-write-wins with one writer at a time (see Gauge), so
  // writing through the central store directly keeps "last" well defined
  // without per-thread ordering rules.
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  MILBACK_REQUIRE(id < c.entries.size(), "obs: gauge id out of range");
  c.entries[id].gauge = value;
  c.entries[id].gauge_is_set = true;
}

void sink_trace_add(std::uint32_t name_id, double t_begin, double t_end,
                    std::uint64_t lane) {
  sink().traces.push_back(TraceRecord{name_id, t_begin, t_end, lane});
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: see Central
  return *r;
}

namespace {

std::uint32_t intern(std::string_view name, Registry::MetricSnapshot::Kind kind,
                     MetricClass cls, const HistogramSpec& spec) {
  MILBACK_REQUIRE(!name.empty(), "obs: metric name must be non-empty");
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  if (auto it = c.ids.find(name); it != c.ids.end()) {
    const Entry& e = c.entries[it->second];
    MILBACK_REQUIRE(e.kind == kind, "obs: metric re-registered as another kind");
    MILBACK_REQUIRE(e.cls == cls, "obs: metric re-registered in another class");
    if (kind == Registry::MetricSnapshot::Kind::kHistogram) {
      MILBACK_REQUIRE(e.spec.min_edge == spec.min_edge &&
                          e.spec.growth == spec.growth &&
                          e.spec.buckets == spec.buckets,
                      "obs: histogram re-registered with a different spec");
    }
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(c.entries.size());
  MILBACK_REQUIRE(id != obs::detail::kInvalidId, "obs: metric id space exhausted");
  Entry e;
  e.name = std::string(name);
  e.kind = kind;
  e.cls = cls;
  e.spec = spec;
  e.hist.spec = spec;
  c.entries.push_back(std::move(e));
  c.ids.emplace(std::string(name), id);
  return id;
}

}  // namespace

Counter Registry::counter(std::string_view name, MetricClass cls) {
  return Counter(intern(name, MetricSnapshot::Kind::kCounter, cls, {}));
}

Gauge Registry::gauge(std::string_view name, MetricClass cls) {
  return Gauge(intern(name, MetricSnapshot::Kind::kGauge, cls, {}));
}

Histogram Registry::histogram(std::string_view name, const HistogramSpec& spec,
                              MetricClass cls) {
  MILBACK_REQUIRE(spec.min_edge > 0.0, "obs: histogram min_edge must be > 0");
  MILBACK_REQUIRE(spec.growth > 1.0, "obs: histogram growth must be > 1");
  MILBACK_REQUIRE(spec.buckets >= 1, "obs: histogram needs >= 1 bucket");
  return Histogram(intern(name, MetricSnapshot::Kind::kHistogram, cls, spec),
                   spec);
}

std::uint32_t Registry::trace_name(std::string_view name) {
  MILBACK_REQUIRE(!name.empty(), "obs: trace name must be non-empty");
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  if (auto it = c.trace_ids.find(name); it != c.trace_ids.end())
    return it->second;
  const auto id = static_cast<std::uint32_t>(c.trace_names.size());
  c.trace_names.emplace_back(name);
  c.trace_ids.emplace(std::string(name), id);
  return id;
}

void Registry::flush_this_thread() { sink().flush(); }

void Registry::reset() {
  // Drop the calling thread's pending values, then zero the central store and
  // bump the generation so other threads' stale sinks discard on flush.
  ThreadSink& s = sink();
  s.counters.clear();
  s.hists.clear();
  s.traces.clear();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  for (Entry& e : c.entries) {
    e.counter = 0;
    e.gauge = 0.0;
    e.gauge_is_set = false;
    e.hist = HistogramSnapshot{};
    e.hist.spec = e.spec;
  }
  c.trace_records.clear();
  ++ThreadSink::central_generation();
  s.generation = ThreadSink::central_generation();
}

namespace {

const Entry* find_entry(Central& c, std::string_view name) {
  auto it = c.ids.find(name);
  return it == c.ids.end() ? nullptr : &c.entries[it->second];
}

}  // namespace

// milback-analyze: no-contract(a metric that was never recorded is defined to read as zero)
std::uint64_t Registry::counter_value(std::string_view name) {
  flush_this_thread();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  const Entry* e = find_entry(c, name);
  return e ? e->counter : 0;
}

// milback-analyze: no-contract(a metric that was never recorded is defined to read as zero)
double Registry::gauge_value(std::string_view name) {
  flush_this_thread();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  const Entry* e = find_entry(c, name);
  return e ? e->gauge : 0.0;
}

HistogramSnapshot Registry::histogram_snapshot(std::string_view name) {
  flush_this_thread();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  const Entry* e = find_entry(c, name);
  if (e == nullptr) return {};
  HistogramSnapshot h = e->hist;
  if (h.counts.empty()) h.counts.assign(h.spec.buckets + 2, 0);
  MILBACK_ENSURE(h.counts.size() == h.spec.buckets + 2,
                 "histogram_snapshot: bucket array tracks the spec");
  return h;
}

std::size_t Registry::trace_record_count() {
  flush_this_thread();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.trace_records.size();
}

std::vector<Registry::MetricSnapshot> Registry::metric_snapshots() {
  flush_this_thread();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  std::vector<MetricSnapshot> out;
  out.reserve(c.ids.size());
  // c.ids is an ordered map keyed by name: iteration IS the canonical order.
  for (const auto& [name, id] : c.ids) {
    const Entry& e = c.entries[id];
    MetricSnapshot m;
    m.name = e.name;
    m.kind = e.kind;
    m.cls = e.cls;
    m.counter = e.counter;
    m.gauge = e.gauge;
    m.gauge_is_set = e.gauge_is_set;
    m.hist = e.hist;
    if (m.kind == MetricSnapshot::Kind::kHistogram && m.hist.counts.empty())
      m.hist.counts.assign(m.hist.spec.buckets + 2, 0);
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Registry::TraceSnapshot> Registry::trace_snapshots() {
  flush_this_thread();
  Central& c = central();
  std::lock_guard<std::mutex> lock(c.mu);
  std::vector<TraceSnapshot> out;
  out.reserve(c.trace_records.size());
  for (const TraceRecord& r : c.trace_records) {
    MILBACK_REQUIRE(r.name_id < c.trace_names.size(),
                    "obs: trace record names an unknown span");
    out.push_back(TraceSnapshot{c.trace_names[r.name_id], r.t_begin, r.t_end,
                                r.lane});
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSnapshot& a, const TraceSnapshot& b) {
              return std::tie(a.t_begin, a.t_end, a.lane, a.name) <
                     std::tie(b.t_begin, b.t_end, b.lane, b.name);
            });
  return out;
}

}  // namespace milback::obs
