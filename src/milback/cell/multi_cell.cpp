#include "milback/cell/multi_cell.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "milback/core/contract.hpp"
#include "milback/obs/profile.hpp"
#include "milback/obs/registry.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/units.hpp"

namespace milback::cell {

namespace {

struct MultiObs {
  obs::Counter runs;      ///< multicell.runs
  obs::Counter epochs;    ///< multicell.epochs — barriers executed.
  obs::Counter handoffs;  ///< multicell.handoffs — boundary crossings.
  // Wall-clock halves of the epoch barrier and the run's epilogue (the
  // shard-finish fan-out and the node report), all kRuntime.
  obs::Histogram handoff_ns;       ///< multicell.barrier.handoff_ns
  obs::Histogram interference_ns;  ///< multicell.barrier.interference_ns
  obs::Histogram finish_ns;        ///< multicell.finish_ns
};

const MultiObs& multi_obs() {
  static const MultiObs instance = [] {
    auto& r = obs::Registry::global();
    const auto span = [&r](const char* name) {
      return r.histogram(name, obs::profile_ns_spec(), obs::MetricClass::kRuntime);
    };
    return MultiObs{r.counter("multicell.runs"), r.counter("multicell.epochs"),
                    r.counter("multicell.handoffs"),
                    span("multicell.barrier.handoff_ns"),
                    span("multicell.barrier.interference_ns"),
                    span("multicell.finish_ns")};
  }();
  return instance;
}

// A plan pose the driver can store: the node record and the directives hold
// float coordinates, so a finite double that overflows float is rejected
// here rather than turning into inf mid-run.
void require_float_pose(const GlobalPose& pose) {
  require_finite(float(pose.x_m), "pose.x_m (as float)");
  require_finite(float(pose.y_m), "pose.y_m (as float)");
  require_finite(float(pose.orientation_deg), "pose.orientation_deg (as float)");
}

}  // namespace

MultiCellEngine::MultiCellEngine(const channel::BackscatterChannel& prototype,
                                 MultiCellConfig config)
    : config_(std::move(config)) {
  MILBACK_REQUIRE(!config_.aps.empty(), "MultiCellEngine: at least one AP");
  require_positive(config_.epoch_s, "epoch_s");
  require_positive(config_.coverage_radius_m, "coverage_radius_m");
  MILBACK_REQUIRE(config_.frequency_channels >= 1,
                  "MultiCellEngine: frequency_channels must be >= 1");
  require_finite(config_.interference_node_db, "interference_node_db");
  require_positive(config_.interference_ref_distance_m,
                   "interference_ref_distance_m");
  engines_.reserve(config_.aps.size());
  auto& registry = obs::Registry::global();
  for (std::size_t c = 0; c < config_.aps.size(); ++c) {
    require_finite(config_.aps[c].x_m, "ap.x_m");
    require_finite(config_.aps[c].y_m, "ap.y_m");
    CellConfig cfg = config_.cell;
    cfg.metric_prefix = "cell.c" + std::to_string(c) + ".";
    // One worker per shard: parallelism is across cells, and nesting a
    // thread pool per sweep inside the per-epoch fan-out would oversubscribe.
    cfg.sweep_threads = 1;
    // Per-cell coupling gauges, written from the serial epoch barrier; the
    // shard writes its own queue_depth after each dispatch, and the barrier's
    // write is the last one of every epoch.
    interference_gauges_.push_back(
        registry.gauge(cfg.metric_prefix + "interference_db"));
    depth_gauges_.push_back(registry.gauge(cfg.metric_prefix + "queue_depth"));
    engines_.push_back(std::make_unique<CellEngine>(prototype, std::move(cfg)));
  }
}

std::size_t MultiCellEngine::nearest_cell(double x_m, double y_m) const {
  require_finite(x_m, "x_m");
  require_finite(y_m, "y_m");
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < config_.aps.size(); ++c) {
    const double dx = x_m - config_.aps[c].x_m;
    const double dy = y_m - config_.aps[c].y_m;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

channel::NodePose MultiCellEngine::local_pose(std::size_t c,
                                              const GlobalPose& pose) const {
  MILBACK_REQUIRE(c < engines_.size(), "local_pose: cell out of range");
  require_finite(pose.x_m, "pose.x_m");
  require_finite(pose.y_m, "pose.y_m");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const double dx = pose.x_m - config_.aps[c].x_m;
  const double dy = pose.y_m - config_.aps[c].y_m;
  channel::NodePose local;
  local.distance_m = std::max(std::hypot(dx, dy), 0.1);
  local.azimuth_deg = rad2deg(std::atan2(dy, dx));
  local.orientation_deg = pose.orientation_deg;
  return local;
}

std::size_t MultiCellEngine::add_node(std::string id, const GlobalPose& pose,
                                      const RoamingTraffic& traffic,
                                      double join_time_s) {
  MILBACK_REQUIRE(!ran_, "MultiCellEngine::add_node: engine already ran");
  require_finite(join_time_s, "join_time_s");
  require_float_pose(pose);
  MILBACK_REQUIRE(nodes_.size() < kNone, "add_node: node table full");
  const std::size_t home = nearest_cell(pose.x_m, pose.y_m);
  const core::TrafficSpec spec{local_pose(home, pose), traffic.arrival_rate_bps,
                               traffic.burstiness};
  const std::size_t local =
      engines_[home]->add_node(std::move(id), spec, join_time_s);
  if (nodes_.size() == nodes_.capacity() && !nodes_.empty()) {
    // ~12.5% headroom, not doubling: this table is part of the measured
    // bytes-per-node (see reserve_nodes for the no-growth path).
    nodes_.reserve(nodes_.capacity() + nodes_.capacity() / 8 + 16);
  }
  GlobalNode n;
  n.x_m = float(pose.x_m);
  n.y_m = float(pose.y_m);
  n.orientation_deg = float(pose.orientation_deg);
  n.cell = static_cast<std::uint32_t>(home);
  n.local = static_cast<std::uint32_t>(local);
  nodes_.push_back(n);
  return nodes_.size() - 1;
}

void MultiCellEngine::schedule_waypoint(std::size_t node, double time_s,
                                        const GlobalPose& pose) {
  MILBACK_REQUIRE(!ran_, "schedule_waypoint: engine already ran");
  MILBACK_REQUIRE(node < nodes_.size(), "schedule_waypoint: node out of range");
  require_finite(time_s, "time_s");
  require_non_negative(time_s, "time_s");
  require_float_pose(pose);
  // Prepend to the node's chain (O(1), no tail); run() sorts each chain
  // into (time, insertion) order before the epoch loop starts.
  auto& n = nodes_[node];
  MILBACK_ENSURE(directives_.size() < kNone, "schedule_waypoint: directive store full");
  directives_.push_back(Directive{time_s, float(pose.x_m), float(pose.y_m),
                                  float(pose.orientation_deg), n.dir_head, false});
  n.dir_head = static_cast<std::uint32_t>(directives_.size() - 1);
}

void MultiCellEngine::schedule_leave(std::size_t node, double time_s) {
  MILBACK_REQUIRE(!ran_, "schedule_leave: engine already ran");
  MILBACK_REQUIRE(node < nodes_.size(), "schedule_leave: node out of range");
  require_finite(time_s, "time_s");
  require_non_negative(time_s, "time_s");
  auto& n = nodes_[node];
  MILBACK_ENSURE(directives_.size() < kNone, "schedule_leave: directive store full");
  directives_.push_back(Directive{time_s, 0.0f, 0.0f, 0.0f, n.dir_head, true});
  n.dir_head = static_cast<std::uint32_t>(directives_.size() - 1);
}

void MultiCellEngine::set_multipath(const channel::MultipathConfig& multipath) {
  MILBACK_REQUIRE(!ran_, "MultiCellEngine::set_multipath: install before run()");
  for (auto& e : engines_) e->set_multipath(multipath);
}

void MultiCellEngine::set_observer(std::size_t c, CellEngine::ServiceObserver observer) {
  MILBACK_REQUIRE(c < engines_.size(), "set_observer: cell out of range");
  engines_[c]->set_observer(std::move(observer));
}

const CellEngine& MultiCellEngine::cell(std::size_t c) const {
  MILBACK_REQUIRE(c < engines_.size(), "cell: index out of range");
  return *engines_[c];
}

std::size_t MultiCellEngine::node_cell(std::size_t node) const {
  MILBACK_REQUIRE(node < nodes_.size(), "node_cell: node out of range");
  return nodes_[node].cell;
}

std::size_t MultiCellEngine::memory_bytes() const noexcept {
  std::size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(GlobalNode) +
                      directives_.capacity() * sizeof(Directive) +
                      past_.capacity() * sizeof(PastInstance) +
                      (directed_.capacity() + watch_.capacity()) * sizeof(std::uint32_t);
  for (const auto& e : engines_) bytes += e->memory_bytes();
  return bytes;
}

void MultiCellEngine::forward_directives(double until_s) {
  // Node-index order; within a node, (time, insertion) order — the same
  // total order at any worker count, so event seq stamps are reproducible.
  // Only directed_ is walked; it keeps node order as drained chains drop out.
  std::size_t kept = 0;
  for (const std::uint32_t i : directed_) {
    auto& n = nodes_[i];
    if (directives_[n.dir_head].time_s < until_s) watch_.push_back(i);
    while (n.dir_head != kNone && directives_[n.dir_head].time_s < until_s) {
      const Directive& d = directives_[n.dir_head];
      n.dir_head = d.next;
      if (n.left) continue;
      if (d.leave) {
        engines_[n.cell]->schedule_leave(n.local, d.time_s);
      } else {
        const GlobalPose pose{double(d.x_m), double(d.y_m),
                              double(d.orientation_deg)};
        engines_[n.cell]->schedule_move(n.local, d.time_s,
                                        local_pose(n.cell, pose));
        n.x_m = d.x_m;
        n.y_m = d.y_m;
        n.orientation_deg = d.orientation_deg;
      }
    }
    if (n.dir_head != kNone) directed_[kept++] = i;
  }
  directed_.resize(kept);
}

bool MultiCellEngine::examine(std::size_t i, double time_s) {
  auto& n = nodes_[i];
  if (n.left) return false;
  if (!engines_[n.cell]->node_alive(n.local)) {
    // Either a scheduled leave fired this epoch, or the node has not
    // joined yet; only the former is permanent. The cell's join-time
    // column (exact, as scheduled) distinguishes the two.
    if (engines_[n.cell]->node_join_time_s(n.local) < time_s) n.left = 1;
    return !n.left;
  }
  const GlobalPose pose = node_pose(n);
  const double dx = pose.x_m - config_.aps[n.cell].x_m;
  const double dy = pose.y_m - config_.aps[n.cell].y_m;
  if (std::hypot(dx, dy) <= config_.coverage_radius_m) return false;
  const std::size_t target = nearest_cell(pose.x_m, pose.y_m);
  if (target == n.cell) return false;  // out of range but no closer AP
  CarriedNode carried = engines_[n.cell]->detach_node(n.local, time_s);
  carried.spec.pose = local_pose(target, pose);
  past_.push_back(PastInstance{static_cast<std::uint32_t>(i), n.cell, n.local});
  n.local = static_cast<std::uint32_t>(engines_[target]->attach_node(carried, time_s));
  n.cell = static_cast<std::uint32_t>(target);
  n.handoffs += 1;
  handoffs_ += 1;
  multi_obs().handoffs.add();
  return false;
}

void MultiCellEngine::barrier(double time_s, bool all) {
  // Serial, driver-thread-only: handoffs in node-index order, then the
  // interference refresh in cell-index order. This fixed order is what
  // makes the cross-cell coupling thread-count invariant.
  //
  // A node examined at an earlier barrier and alive there ended it inside
  // coverage or in the nearest cell to its plan pose. Only a forwarded
  // directive changes that pose or ends its life, so until one reaches it
  // examining it again is a no-op; watch_ holds the rest: nodes waiting to
  // join and nodes a directive reached. The first barrier examines every
  // node, since add_node chose the home cell from the double pose and the
  // barrier reads the float one.
  {
    const obs::ProfileScope profile(multi_obs().handoff_ns);
    if (all) {
      watch_.clear();
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (examine(i, time_s)) watch_.push_back(static_cast<std::uint32_t>(i));
      }
    } else {
      // Merge the two node-ordered runs: the last barrier's joiners and the
      // nodes forward_directives reached since.
      const auto joiners_end = watch_.begin() + std::ptrdiff_t(joiners_);
      std::inplace_merge(watch_.begin(), joiners_end, watch_.end());
      watch_.erase(std::unique(watch_.begin(), watch_.end()), watch_.end());
      std::size_t kept = 0;
      for (const std::uint32_t i : watch_) {
        if (examine(i, time_s)) watch_[kept++] = i;
      }
      watch_.resize(kept);
    }
    joiners_ = watch_.size();
  }

  // Co-channel interference: each active sibling on the same frequency
  // channel raises the noise floor, folded as extra one-way path loss for
  // the next epoch. Free-space falloff from the AP spacing, scaled per
  // active node.
  {
    const obs::ProfileScope profile(multi_obs().interference_ns);
    std::size_t total_population = 0;
    std::vector<std::size_t> population(engines_.size());
    for (std::size_t c = 0; c < engines_.size(); ++c) {
      population[c] = engines_[c]->population();
      total_population += population[c];
    }
    peak_population_ = std::max(peak_population_, total_population);
    const double per_node_linear =
        std::pow(10.0, config_.interference_node_db / 10.0);
    for (std::size_t c = 0; c < engines_.size(); ++c) {
      double linear = 0.0;
      for (std::size_t d = 0; d < engines_.size(); ++d) {
        if (d == c || population[d] == 0) continue;
        if (d % config_.frequency_channels != c % config_.frequency_channels) {
          continue;
        }
        const double dx = config_.aps[c].x_m - config_.aps[d].x_m;
        const double dy = config_.aps[c].y_m - config_.aps[d].y_m;
        const double dist_m = std::max(std::hypot(dx, dy), 1.0);
        const double falloff = config_.interference_ref_distance_m / dist_m;
        // milback-analyze: no-reduction(serial epoch-barrier loop in fixed cell-index order; single thread by construction)
        linear += double(population[d]) * per_node_linear * falloff * falloff;
      }
      const double ext_db = 10.0 * std::log10(1.0 + linear);
      engines_[c]->set_external_interference_db(ext_db);
      interference_gauges_[c].set(ext_db);
      depth_gauges_[c].set(double(engines_[c]->pending_events()));
      max_interference_db_ = std::max(max_interference_db_, ext_db);
    }
  }
}

MultiCellReport MultiCellEngine::run(double duration_s, std::uint64_t seed) {
  MILBACK_REQUIRE(!ran_, "MultiCellEngine::run is single-shot; build a fresh engine");
  require_positive(duration_s, "duration_s");
  ran_ = true;

  // Each node's directive chain was prepended at schedule time; rebuild it
  // in (time, insertion) order. A directive's slot index in directives_ is
  // its global insertion rank, so sorting by (time_s, slot) is the stable
  // order the old per-node stable_sort produced.
  {
    std::vector<std::uint32_t> chain;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      auto& n = nodes_[i];
      chain.clear();
      for (std::uint32_t s = n.dir_head; s != kNone; s = directives_[s].next) {
        chain.push_back(s);
      }
      if (chain.empty()) continue;
      std::sort(chain.begin(), chain.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  if (directives_[a].time_s != directives_[b].time_s) {
                    return directives_[a].time_s < directives_[b].time_s;
                  }
                  return a < b;
                });
      for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
        directives_[chain[k]].next = chain[k + 1];
      }
      directives_[chain.back()].next = kNone;
      n.dir_head = chain.front();
      directed_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  // Shard c draws Rng::stream(seed, c, ...): its seed continues the key
  // chain past the cell index.
  for (std::size_t c = 0; c < engines_.size(); ++c) {
    engines_[c]->begin(duration_s, Rng::stream_seed(seed, std::uint64_t{c}));
  }
  std::size_t initial_population = 0;
  for (auto& e : engines_) initial_population += e->population();
  peak_population_ = initial_population;

  const sim::TrialRunner runner(config_.threads);
  std::size_t epochs = 0;
  double t = 0.0;
  while (t < duration_s) {
    const double t_end = std::min(t + config_.epoch_s, duration_s);
    forward_directives(t_end);
    // Each shard dispatches its own events; nothing crosses cells until the
    // barrier below, so the shards are independent TrialRunner tasks.
    runner.for_each(engines_.size(),
                    [&](std::size_t c) { engines_[c]->advance_to(t_end); });
    barrier(t_end, epochs == 0);
    epochs += 1;
    multi_obs().epochs.add();
    t = t_end;
  }

  MultiCellReport report;
  report.duration_s = duration_s;
  report.epochs = epochs;
  report.handoffs = handoffs_;
  report.peak_population = peak_population_;
  report.max_interference_db = max_interference_db_;
  {
    const obs::ProfileScope profile(multi_obs().finish_ns);
    // Each shard's finish() touches only its own engine and report slot.
    report.cells.resize(engines_.size());
    runner.for_each(engines_.size(),
                    [&](std::size_t c) { report.cells[c] = engines_[c]->finish(); });
    for (const CellReport& cell : report.cells) {
      // milback-analyze: no-reduction(serial aggregation in fixed cell-index order after the fan-out joins; single thread by construction)
      report.aggregate_goodput_bps += cell.aggregate_goodput_bps;
      report.stable = report.stable && cell.stable;
    }
    // Each node's visit history: its past_ entries (appended at handoff, so
    // chronological per node, and a stable sort keeps that) and then the
    // current instance.
    std::vector<PastInstance> past = past_;
    std::stable_sort(past.begin(), past.end(),
                     [](const PastInstance& a, const PastInstance& b) {
                       return a.node < b.node;
                     });
    auto visit = past.cbegin();
    report.nodes.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto& n = nodes_[i];
      MultiCellNodeReport r;
      const bool moved = visit != past.cend() && visit->node == i;
      r.home_cell = moved ? visit->cell : n.cell;
      r.id = engines_[r.home_cell]->node_id(moved ? visit->local : n.local);
      r.final_cell = n.cell;
      r.handoffs = n.handoffs;
      const auto add = [&](std::size_t c, std::size_t l) {
        const CellNodeReport& nr = report.cells[c].nodes[l];
        // milback-analyze: no-reduction(serial aggregation in fixed visit order; single thread by construction)
        r.offered_bits += nr.offered_bits;
        // milback-analyze: no-reduction(serial aggregation in fixed visit order; single thread by construction)
        r.delivered_bits += nr.delivered_bits;
        r.rounds_served += nr.rounds_served;
      };
      for (; visit != past.cend() && visit->node == i; ++visit) add(visit->cell, visit->local);
      add(n.cell, n.local);
      r.final_queue_bits = report.cells[n.cell].nodes[n.local].final_queue_bits;
      report.nodes.push_back(r);
    }
  }
  multi_obs().runs.add();
  MILBACK_ENSURE(report.nodes.size() == nodes_.size(),
                 "MultiCellEngine::run: one report entry per node");
  return report;
}

}  // namespace milback::cell
