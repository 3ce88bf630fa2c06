// Shared harness of the end-to-end benchmark binary (milback_e2e).
//
// Every workload is a closed loop over the milback public API: one caller
// starts the next operation when the previous one returns. A workload file
// supplies three things — a set-up, one repetition of fixed work, and the
// traced breakdown — and this header supplies the clocks, statistics,
// output digest and the layer-timing helper they share.
//
// Layers are timed from outside the program: a layer's cost is the median
// per-call time of calling its public function on the workload's own
// inputs, and its calls per operation come from the counters and trace spans
// the program already exports (obs::Registry) or, where none exists, from
// the workload's own outputs. No span inside src/ is assumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace milback::channel {
class BackscatterChannel;
struct NodePose;
}  // namespace milback::channel
namespace milback::ap {
class Localizer;
}  // namespace milback::ap

namespace e2e {

/// Seed of the one office clutter scene every workload uses. The clutter
/// geometry sets how many ghost paths each burst synthesizes and which poses
/// lock onto a ghost, so drawing it from the workload seed would make the
/// work per operation depend on the seed.
inline constexpr std::uint64_t kOfficeSceneSeed = 1;

/// Host wall time [s] on a monotonic clock. Host time is what the benchmark
/// measures; it never feeds a simulated value.
double wall_now_s();

/// Time [s] of one reference_s() run on a host as fast as the 4-vCPU Xeon VM
/// the benchmark was defined on (its median there). Every host time the
/// binary reports is in reference-host seconds: wall time scaled by this over
/// the reference's measured time (host_speed.cpp).
inline constexpr double kReferenceNominalS = 0.45e-3;

/// Runs the fixed reference computation (host_speed.cpp) once on the calling
/// thread and returns its wall time [s].
double reference_s();

/// Reference-host time [s] of `fn()`: its wall time scaled by one reference
/// run on the same thread right after it. Made for segments of up to tens of
/// milliseconds on the calling thread; a longer one is scaled by the host
/// speed at its end only. Called inside another timed_s() segment, it
/// returns the plain wall time and runs no reference.
double timed_s(const std::function<void()>& fn);

/// Reference-host time [s] of `fn()`: its wall time scaled by the mean of the
/// reference runs a sampler makes while it runs. For segments of seconds
/// that spread over several worker threads. fn and the sampler run as the
/// two tasks of a sim::TrialRunner region, which counts in the sim.*
/// counters when metrics are on.
double sampled_s(const std::function<void()>& fn);

/// Median reference time of the run so far over kReferenceNominalS: how much
/// slower than nominal the host ran (informational; never scales a metric).
double host_slowdown();

/// Command-line options; the seed is the binary's only input.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Wall-time budget of the measured phase.
  bool traced = false;
};

/// FNV-1a over the simulated outputs. Doubles are hashed by bit pattern, so
/// any change to a simulated value changes the digest.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(bool v) { add(std::uint64_t(v ? 1 : 0)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// What one repetition of a workload's fixed work produced. Host times are
/// reference-host times (timed_s, sampled_s).
struct RepOut {
  std::vector<double> op_ms;        ///< Time of every operation.
  double work_s = 0.0;              ///< Time of the repetition's timed work:
                                    ///< its operations and any engine
                                    ///< begin/finish around them.
  double setup_s = 0.0;             ///< Time of set-up done inside the
                                    ///< repetition (an engine build); it
                                    ///< counts as set-up, not as work.
  std::uint64_t attempted = 0;      ///< Outcomes checked against ground truth.
  std::uint64_t failed = 0;         ///< Outcomes that missed it.
  std::uint64_t sim_events = 0;     ///< Engine events dispatched (cell engines).
  std::vector<double> loc_err_cm;   ///< Localization errors (sim).
  double goodput_mbps = 0.0;        ///< Aggregate simulated goodput.
  double bytes_per_node = 0.0;      ///< Engine state per node after the run.
  Digest digest;
};

/// One row of the traced layer table: `calls_per_op` calls of `name`, each
/// costing `cost_ms`, made from inside `parent` ("op" for the operation
/// itself, else another row's name). `par` > 1 marks calls spread over that
/// many workers, whose wall share is calls x cost / par.
struct LayerRow {
  std::string name;
  std::string parent;
  double calls_per_op = 0.0;
  double cost_ms = 0.0;
  double par = 1.0;
};

/// Everything the binary prints.
struct Result {
  std::string op_name;               ///< What one operation is.
  std::vector<double> setup_s;       ///< One entry per set-up performed.
  std::vector<double> rep_s;         ///< Work time of each measured repetition.
  std::vector<double> op_ms;         ///< Every measured operation.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;          ///< Digest of repetition 0.
  bool correct = true;               ///< All in-process checks held.
  std::string error;                 ///< Why `correct` is false.
  std::map<std::string, double> metrics;  ///< Named scalar metrics.
  std::vector<LayerRow> layers;      ///< Traced runs only.
  double layer_root_ms = 0.0;        ///< Untraced mean operation the rows
                                     ///< add up to (repetition wall / ops
                                     ///< where operations share state).
};

/// Phases shared by the workloads. `rep_fn(rep, out)` runs
/// repetition `rep` of the fixed work.
using RepFn = std::function<void(std::uint64_t rep, RepOut& out)>;

/// Runs `setup` once under timed_s() and appends its time to result.setup_s.
void timed_setup(const std::function<void()>& setup, Result& result);

/// Measured phase: repetitions until `opt.seconds` have elapsed (at least
/// `min_reps`), each after a timed `setup` (if given), so the set-up samples
/// spread over the run as the repetitions do. Fills rep_s (each repetition's
/// work_s), op_ms, attempted/failed, the rep-0 digest and the rep-0
/// simulated outcomes, and moves each repetition's own set-up share into
/// setup_s.
void timed_phase(const Options& opt, std::size_t min_reps, const std::function<void()>& setup,
                 const RepFn& rep_fn, Result& result);

/// Records repetition 0's simulated outcomes and digest into `result`.
void record_outcomes(const RepOut& rep0, Result& result);

/// Traced phase of a workload of independent operations: the first quarter
/// of repetition 0 untraced (untraced latency and digest), then all of
/// repetition 0 with the registry live. `op(i, out)` runs operation i of
/// repetition 0. Fills the traced latencies, outcomes, tracing overhead,
/// layer root and registry counters; flags a digest mismatch.
void traced_ops_phase(std::size_t ops_per_rep,
                      const std::function<void(std::size_t i, RepOut& out)>& op,
                      Result& result);

/// Traced phase of a workload whose repetition is one stateful run:
/// repetition 0 untraced (untraced work time and digest), then again with
/// the registry live. Fills the same fields as traced_ops_phase.
void traced_rep_phase(const RepFn& rep_fn, Result& result);

/// Median per-call time [ms] of `call(i)` cycling i over [0, n_inputs),
/// timed under timed_s() in batches long enough for the clock to resolve,
/// within roughly `budget_s`. The callable's return value feeds a sink so
/// the call cannot be elided.
double time_per_call_ms(std::size_t n_inputs, double budget_s,
                        const std::function<double(std::size_t)>& call);

/// Enables (or disables) the obs registry's metrics and trace spans. Enabling
/// clears the registry first.
void set_tracing(bool on);

/// Counter value from the obs registry.
double counter(const char* name);

/// Number of recorded trace spans named `name`.
double span_count(const std::string& name);

/// Reads the registry after a traced repetition of `ops` operations: every
/// exported counter per operation (shard-labelled cell.c<k>.* / mesh.c<k>.*
/// counters summed over shards) and the cache-miss and NLoS-fallback ratios.
void record_registry(double ops, Result& result);

/// Rows for the stages of the AP localization pipeline under `parent`, timed
/// on `poses` through `channel`; calls per operation come from the
/// localizer's trace spans recorded over `ops` operations.
void localizer_rows(const milback::channel::BackscatterChannel& channel,
                    const milback::ap::Localizer& localizer,
                    const std::vector<milback::channel::NodePose>& poses, double ops,
                    const std::string& parent, double budget_s, Result& result);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();

/// The workloads; each fills `result` for an untraced or a traced run.
void link_office(const Options& opt, Result& result);
void loc_nlos(const Options& opt, Result& result);
void cell_mesh(const Options& opt, Result& result);
void campus_100k(const Options& opt, Result& result);

}  // namespace e2e
