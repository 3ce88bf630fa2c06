// milback_e2e — the end-to-end benchmark binary.
//
//   milback_e2e --workload <name> --seed <n> [--seconds <s>] [--traced]
//
// Runs one workload and prints one JSON object on stdout. Untraced runs
// report the end-to-end metrics (set-up, repetition wall time, operation
// latency percentiles, peak RSS) and the simulated outcomes; traced runs
// enable the obs registry, rerun repetition 0 and report the per-layer
// breakdown. Both report the digest of repetition 0, which must agree:
// tracing may not perturb simulated results. Every host time is scaled by
// a fixed reference computation timed beside it and reported in
// reference-host seconds (host_speed.cpp). bench/e2e/run.py is the command
// that builds and drives this binary.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <string>
#include <utility>

#include "e2e.hpp"
#include "milback/obs/registry.hpp"
#include "milback/sim/trial_runner.hpp"

namespace e2e {

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  const std::size_t k = std::size_t(std::clamp(rank, 1.0, double(v.size())));
  return v[k - 1];
}

double peak_rss_mb() {
  // VmHWM is this program's own peak: getrusage's ru_maxrss survives exec,
  // so it would report the launching process's peak when that one is larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

void record_outcomes(const RepOut& rep0, Result& result) {
  result.digest = rep0.digest.value();
  if (!rep0.loc_err_cm.empty()) {
    result.metrics["outcome.loc_err_cm_p90"] = percentile(rep0.loc_err_cm, 90.0);
  }
  if (rep0.goodput_mbps > 0.0) result.metrics["outcome.goodput_mbps"] = rep0.goodput_mbps;
  if (rep0.bytes_per_node > 0.0) {
    result.metrics["outcome.bytes_per_node"] = rep0.bytes_per_node;
  }
}

void timed_setup(const std::function<void()>& setup, Result& result) {
  result.setup_s.push_back(timed_s(setup));
}

void timed_phase(const Options& opt, std::size_t min_reps, const std::function<void()>& setup,
                 const RepFn& rep_fn, Result& result) {
  const double start = wall_now_s();
  for (std::uint64_t rep = 0; rep < min_reps || wall_now_s() - start < opt.seconds;
       ++rep) {
    if (setup) timed_setup(setup, result);
    RepOut out;
    rep_fn(rep, out);
    if (out.setup_s > 0.0) result.setup_s.push_back(out.setup_s);
    result.rep_s.push_back(out.work_s);
    result.op_ms.insert(result.op_ms.end(), out.op_ms.begin(), out.op_ms.end());
    result.attempted += out.attempted;
    result.failed += out.failed;
    if (rep == 0) record_outcomes(out, result);
  }
}

namespace {

void flag_if_perturbed(std::uint64_t untraced, std::uint64_t traced, Result& result) {
  if (untraced != traced) {
    result.correct = false;
    result.error = "tracing changed simulated outputs";
  }
}

void keep_traced(const RepOut& traced, Result& result) {
  result.rep_s.push_back(traced.work_s);
  if (traced.setup_s > 0.0) result.setup_s.push_back(traced.setup_s);
  result.op_ms = traced.op_ms;
  result.attempted = traced.attempted;
  result.failed = traced.failed;
  record_outcomes(traced, result);
}

}  // namespace

void traced_ops_phase(std::size_t ops_per_rep,
                      const std::function<void(std::size_t i, RepOut& out)>& op,
                      Result& result) {
  const std::size_t quarter = ops_per_rep / 4;
  RepOut untraced;
  for (std::size_t i = 0; i < quarter; ++i) op(i, untraced);
  set_tracing(true);
  RepOut traced;
  std::uint64_t traced_quarter = 0;
  for (std::size_t i = 0; i < ops_per_rep; ++i) {
    op(i, traced);
    if (i + 1 == quarter) traced_quarter = traced.digest.value();
  }
  set_tracing(false);
  keep_traced(traced, result);
  flag_if_perturbed(untraced.digest.value(), traced_quarter, result);
  const std::vector<double> traced_first(traced.op_ms.begin(),
                                         traced.op_ms.begin() + std::ptrdiff_t(quarter));
  result.metrics["trace.overhead_ratio"] = median(traced_first) / median(untraced.op_ms);
  result.layer_root_ms = mean(untraced.op_ms);
  record_registry(double(ops_per_rep), result);
}

void traced_rep_phase(const RepFn& rep_fn, Result& result) {
  RepOut untraced;
  rep_fn(0, untraced);
  if (untraced.setup_s > 0.0) result.setup_s.push_back(untraced.setup_s);
  set_tracing(true);
  RepOut traced;
  rep_fn(0, traced);
  set_tracing(false);
  keep_traced(traced, result);
  flag_if_perturbed(untraced.digest.value(), traced.digest.value(), result);
  const double ops = double(traced.op_ms.size());
  result.metrics["trace.overhead_ratio"] = traced.work_s / untraced.work_s;
  result.metrics["cell.ns_per_event"] =
      1e9 * untraced.work_s / double(std::max<std::uint64_t>(untraced.sim_events, 1));
  result.layer_root_ms = 1e3 * untraced.work_s / ops;
  record_registry(ops, result);
}

double time_per_call_ms(std::size_t n_inputs, double budget_s,
                        const std::function<double(std::size_t)>& call) {
  if (n_inputs == 0) return 0.0;
  // The results feed a sink so no call can be elided.
  static volatile double sink = 0.0;
  // One untimed call warms caches and sizes the batch: each timed batch runs
  // for at least ~0.2 ms, so the clock read is negligible, and covers every
  // input, so the median batch gives the mean cost over mixed inputs.
  const double t0 = wall_now_s();
  double acc = call(0);
  const double first_s = std::max(wall_now_s() - t0, 1e-8);
  const std::size_t batch = std::max(n_inputs, std::size_t(2e-4 / first_s));
  std::vector<double> per_call_ms;
  const double start = wall_now_s();
  std::size_t i = 0;
  while (per_call_ms.size() < 5 ||
         (per_call_ms.size() < 101 && wall_now_s() - start < budget_s)) {
    const double batch_s = timed_s([&] {
      for (std::size_t b = 0; b < batch; ++b) {
        // milback-analyze: no-reduction(sink for timed calls; never reported)
        acc += call(i++ % n_inputs);
      }
    });
    per_call_ms.push_back(1e3 * batch_s / double(batch));
  }
  sink = sink + acc;
  return median(per_call_ms);
}

void set_tracing(bool on) {
  auto& r = milback::obs::Registry::global();
  if (on) r.reset();
  milback::obs::set_enabled(on, on);
  if (!on) r.flush_this_thread();
}

double counter(const char* name) {
  return double(milback::obs::Registry::global().counter_value(name));
}

double span_count(const std::string& name) {
  const auto spans = milback::obs::Registry::global().trace_snapshots();
  return double(std::count_if(spans.begin(), spans.end(),
                              [&](const auto& s) { return s.name == name; }));
}

// Counters the program exports, reported per operation. A standalone cell
// names them "cell.events.join"; the shards of a multi-cell engine name
// them "cell.c<k>.events.join", and those are summed.
constexpr const char* kPerOpCounters[] = {
    "cell.events.arrival",  "cell.events.service",    "cell.events.join",
    "cell.events.leave",    "cell.events.move",       "cell.events.blockage_start",
    "cell.sweeps",          "sim.regions",            "sim.tasks",
    "mesh.route_discovery", "mesh.reroute",           "mesh.relay_forward",
    "channel.paths_active", "channel.blockage_sever", "multicell.epochs",
    "multicell.handoffs",
};

namespace {

// Whether `name` is `base` ("cell.sweeps") or a shard label of it
// ("cell.c12.sweeps").
bool same_counter(const std::string& name, const std::string& base) {
  if (name == base) return true;
  const auto dot = base.find('.');
  const std::string head = base.substr(0, dot + 1) + "c";
  const std::string tail = base.substr(dot);
  if (name.size() <= head.size() + tail.size() || name.compare(0, head.size(), head) != 0 ||
      name.compare(name.size() - tail.size(), tail.size(), tail) != 0) {
    return false;
  }
  const std::string label = name.substr(head.size(), name.size() - head.size() - tail.size());
  return label.find_first_not_of("0123456789") == std::string::npos;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void record_registry(double ops, Result& result) {
  const auto snapshots = milback::obs::Registry::global().metric_snapshots();
  for (const char* base : kPerOpCounters) {
    std::uint64_t total = 0;
    for (const auto& m : snapshots) {
      if (m.kind == milback::obs::Registry::MetricSnapshot::Kind::kCounter &&
          same_counter(m.name, base)) {
        total += m.counter;
      }
    }
    result.metrics[std::string(base) + ".per_op"] = double(total) / ops;
  }
  result.metrics["loc.nlos_fallback_ratio"] =
      ratio(counter("loc.nlos_fallback"), counter("ap.localize.calls"));
  const double plan_misses = counter("dsp.fft_plan.misses");
  result.metrics["dsp.fft_plan.miss_ratio"] =
      ratio(plan_misses, plan_misses + counter("dsp.fft_plan.hits"));
  const double window_misses = counter("dsp.window.misses");
  result.metrics["dsp.window.miss_ratio"] =
      ratio(window_misses, window_misses + counter("dsp.window.hits"));
}

}  // namespace e2e

namespace {

using e2e::Result;

// Every layer the traced table can hold, with the unit its per-call cost is
// printed in. Each traced run prints all of them — a layer a workload does
// not exercise reads 0 calls per operation — so every workload reports the
// same metric names. bench/e2e/run.py checks them against BENCHMARK.json.
struct LayerUnit {
  const char* name;
  bool micro;  // cost in us instead of ms
};
constexpr LayerUnit kLayers[] = {
    {"ap.localize", false},
    {"ap.synthesize_burst", false},
    {"radar.range_fft", true},
    {"radar.background_subtract", true},
    {"radar.estimate_range", true},
    {"radar.estimate_offset_deg", true},
    {"channel.node_path_set", true},
    {"channel.modulated_returns", true},
    {"channel.clutter_returns", true},
    {"node.field1_trace", false},
    {"node.sense_orientation", false},
    {"ap.sense_orientation", false},
    {"core.run_uplink", false},
    {"core.run_downlink", false},
    {"cell.begin", false},
    {"cell.finish", false},
    {"cell.probe_service_rate", true},
    {"cell.sdm_partition", true},
    {"sim.for_each_region", true},
    {"mesh.build_neighbor_table", false},
    {"mesh.build_routes", false},
    {"multicell.add_node", true},
};

// Traced scalars beside the layer costs; a workload that has none reads 0.
constexpr const char* kTracedScalars[] = {
    "loc.nlos_fallback_ratio", "dsp.fft_plan.miss_ratio", "dsp.window.miss_ratio",
    "cell.ns_per_event",       "unattributed_share",      "trace.overhead_ratio",
    "outcome.loc_err_cm_p90",  "outcome.goodput_mbps",    "outcome.bytes_per_node",
};

// Share of the mean operation the top-level rows leave unexplained.
double unattributed_share(const Result& r) {
  if (r.layer_root_ms <= 0.0) return 0.0;
  double explained_ms = 0.0;
  for (const auto& row : r.layers) {
    // milback-analyze: no-reduction(serial sum over the layer rows in table order)
    if (row.parent == "op") explained_ms += row.calls_per_op * row.cost_ms / row.par;
  }
  return (r.layer_root_ms - explained_ms) / r.layer_root_ms;
}

// Metrics in print order: the end-to-end set, then the traced set (traced
// runs) or the simulated outcomes (untraced runs).
std::vector<std::pair<std::string, double>> collect_metrics(const e2e::Options& opt,
                                                            Result& r) {
  std::vector<std::pair<std::string, double>> out{
      {"setup_s", e2e::median(r.setup_s)},
      {"wall_s", e2e::median(r.rep_s)},
      {"op_ms_p50", e2e::percentile(r.op_ms, 50.0)},
      {"op_ms_p99", e2e::percentile(r.op_ms, 99.0)},
      {"peak_rss_mb", e2e::peak_rss_mb()},
      {"fail_ratio", double(r.failed) / double(std::max<std::uint64_t>(r.attempted, 1))},
      {"host_slowdown", e2e::host_slowdown()},
  };
  if (!opt.traced) {
    for (const auto& [name, v] : r.metrics) out.emplace_back(name, v);
    return out;
  }
  for (const auto& row : r.layers) {
    const bool known = std::any_of(std::begin(kLayers), std::end(kLayers),
                                   [&](const LayerUnit& l) { return row.name == l.name; });
    if (!known) {
      r.correct = false;
      r.error = "layer row without a registered name: " + row.name;
    }
  }
  for (const auto& l : kLayers) {
    double cost = 0.0;
    double calls = 0.0;
    for (const auto& row : r.layers) {
      if (row.name != l.name) continue;
      cost = row.cost_ms;
      // milback-analyze: no-reduction(serial sum over the layer rows in table order)
      calls += row.calls_per_op;
    }
    const std::string base(l.name);
    out.emplace_back(base + (l.micro ? ".us" : ".ms"), l.micro ? 1e3 * cost : cost);
    out.emplace_back(base + ".per_op", calls);
  }
  r.metrics["unattributed_share"] = unattributed_share(r);
  for (const char* c : e2e::kPerOpCounters) {
    const std::string name = std::string(c) + ".per_op";
    out.emplace_back(name, r.metrics.count(name) ? r.metrics[name] : 0.0);
  }
  for (const char* s : kTracedScalars) {
    out.emplace_back(s, r.metrics.count(s) ? r.metrics[s] : 0.0);
  }
  return out;
}

void print_result(const e2e::Options& opt, Result& r) {
  const auto metrics = collect_metrics(opt, r);
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s,",
              opt.workload.c_str(), opt.seed, opt.traced ? "true" : "false");
  std::printf("\"threads\":%d,\"op\":\"%s\",\"ops\":%zu,\"reps\":%zu,\"setups\":%zu,",
              milback::sim::resolve_thread_count(0), r.op_name.c_str(), r.op_ms.size(),
              r.rep_s.size(), r.setup_s.size());
  std::printf("\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"digest\":\"%016" PRIx64 "\",\"correct\":%s,\"error\":\"%s\",",
              r.attempted, r.failed, r.digest, r.correct ? "true" : "false",
              r.error.c_str());
  std::printf("\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = metrics[i].second;
    std::printf("%s\"%s\":%.17g", i ? "," : "", metrics[i].first.c_str(),
                std::isfinite(v) ? v : 0.0);
  }
  std::printf("},\"layer_root_ms\":%.17g,\"layers\":[", r.layer_root_ms);
  for (std::size_t i = 0; i < r.layers.size(); ++i) {
    const auto& row = r.layers[i];
    std::printf("%s{\"name\":\"%s\",\"parent\":\"%s\",\"calls_per_op\":%.17g,"
                "\"cost_ms\":%.17g,\"par\":%.17g}",
                i ? "," : "", row.name.c_str(), row.parent.c_str(), row.calls_per_op,
                row.cost_ms, row.par);
  }
  std::printf("]}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: milback_e2e --workload link_office|loc_nlos|cell_mesh|"
               "campus_100k --seed <n> [--seconds <s>] [--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0' || argv[i][0] == '-' || argv[i][0] == '\0') return usage();
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage();
    } else if (a == "--traced") {
      opt.traced = true;
    } else {
      return usage();
    }
  }
  if (!have_seed) return usage();

  Result r;
  try {
    if (opt.workload == "link_office") {
      e2e::link_office(opt, r);
    } else if (opt.workload == "loc_nlos") {
      e2e::loc_nlos(opt, r);
    } else if (opt.workload == "cell_mesh") {
      e2e::cell_mesh(opt, r);
    } else if (opt.workload == "campus_100k") {
      e2e::campus_100k(opt, r);
    } else {
      return usage();
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "milback_e2e: %s\n", ex.what());
    return 1;
  }
  print_result(opt, r);
  return 0;
}
