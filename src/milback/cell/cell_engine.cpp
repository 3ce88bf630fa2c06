#include "milback/cell/cell_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

#include "milback/core/contract.hpp"
#include "milback/core/packet.hpp"
#include "milback/mesh/mesh_runtime.hpp"
#include "milback/obs/profile.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback::cell {

namespace {

// Bucket layouts for the cell metrics (fixed at first registration).
constexpr obs::HistogramSpec kLatencySpec{1e-6, 1.3, 80};     // 1 us .. ~20 min
constexpr obs::HistogramSpec kRateSpec{1e3, 1.5, 40};         // 1 kbps .. ~10 Gbps
constexpr obs::HistogramSpec kSnrSpec{0.25, 1.15, 50};        // 0.25 .. ~270 dB
constexpr obs::HistogramSpec kPopulationSpec{1.0, 1.3, 40};   // 1 .. ~36k nodes

// One waveform-level SDM round over every registered node; `serve` is
// serve_uplink_node or serve_downlink_node. One draw from the caller's
// generator seeds every per-service stream pair (round_seed, k, 0 = data |
// 1 = noise), so the fan-out may run in any order on any number of threads;
// results are reduced in slot-major service order on the calling thread.
template <typename Round, typename Serve>
Round run_sdm_round(const core::MilBackLink& link, const NodeSoA& nodes,
                    const std::vector<std::vector<std::size_t>>& slots,
                    std::size_t bits_per_node, milback::Rng& rng, Serve serve) {
  using NodeResult = typename decltype(Round::nodes)::value_type;
  Round round;
  round.sdm_slots = slots.size();
  const auto services = flatten_services(slots);
  std::vector<std::string> ids;
  ids.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ids.emplace_back(nodes.id[i].view());
  }

  const std::uint64_t round_seed = rng.engine()();
  const sim::TrialRunner runner;
  auto results = runner.map<NodeResult>(services.size(), [&](std::size_t k) {
    auto data_rng = Rng::stream(round_seed, k, std::uint64_t{0});
    auto noise_rng = Rng::stream(round_seed, k, std::uint64_t{1});
    return serve(link, nodes.pose, ids, services[k], slots[services[k].slot],
                 bits_per_node, data_rng, noise_rng);
  });

  const double slot_share = slots.empty() ? 1.0 : double(slots.size());
  for (auto& nr : results) {
    nr.goodput_bps /= slot_share;
    // milback-analyze: no-reduction(round results aggregated in fixed node-index order on the calling thread)
    round.aggregate_goodput_bps += nr.goodput_bps;
    round.nodes.push_back(std::move(nr));
  }
  MILBACK_ENSURE(round.nodes.size() == services.size(),
                 "SDM round: one result per service");
  return round;
}

// A pose the SDM partition and the budget probes can serve: in front of the
// AP, with a finite bearing and facing (add_node and schedule_move).
void require_valid_pose(const channel::NodePose& pose) {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
}

}  // namespace

// Cell-wide metric handles, interned once per CellConfig::metric_prefix:
// "cell." by default, "cell.c<k>." for shard k of a MultiCellEngine, so
// sibling cells running on different TrialRunner workers never contend for
// (or double-count into) one metric. Everything here is kSim: counters and
// histograms merge exactly across threads, and the one gauge has one writer
// at a time in a fixed order (see dispatch()).
struct CellObs {
  obs::Counter ev_join, ev_leave, ev_move, ev_arrival, ev_service;
  obs::Counter ev_blockage_start, ev_blockage_end;
  obs::Counter ev_handoff_in, ev_handoff_out;
  obs::Counter runs, sweeps, sweeps_skipped_nodes;
  obs::Gauge queue_depth;
  obs::Histogram latency_s, service_rate_bps, session_snr_db, sweep_population;
  std::uint32_t sweep_span = 0;
  std::uint32_t blockage_span = 0;
};

namespace {

CellObs make_cell_obs(const std::string& prefix) {
  auto& r = obs::Registry::global();
  CellObs o;
  o.ev_join = r.counter(prefix + "events.join");
  o.ev_leave = r.counter(prefix + "events.leave");
  o.ev_move = r.counter(prefix + "events.move");
  o.ev_arrival = r.counter(prefix + "events.arrival");
  o.ev_service = r.counter(prefix + "events.service");
  o.ev_blockage_start = r.counter(prefix + "events.blockage_start");
  o.ev_blockage_end = r.counter(prefix + "events.blockage_end");
  o.ev_handoff_in = r.counter(prefix + "events.handoff_in");
  o.ev_handoff_out = r.counter(prefix + "events.handoff_out");
  o.runs = r.counter(prefix + "runs");
  o.sweeps = r.counter(prefix + "sweeps");
  o.sweeps_skipped_nodes = r.counter(prefix + "sweeps.skipped_nodes");
  o.queue_depth = r.gauge(prefix + "queue_depth");
  o.latency_s = r.histogram(prefix + "latency_s", kLatencySpec);
  o.service_rate_bps = r.histogram(prefix + "service_rate_bps", kRateSpec);
  o.session_snr_db = r.histogram(prefix + "session_snr_db", kSnrSpec);
  o.sweep_population = r.histogram(prefix + "sweep_population", kPopulationSpec);
  o.sweep_span = r.trace_name(prefix + "sweep");
  o.blockage_span = r.trace_name(prefix + "blockage");
  return o;
}

// Handles per prefix, interned lazily. std::map: node-based, so the
// references engines hold stay valid as new prefixes appear.
const CellObs& cell_obs(const std::string& prefix) {
  static std::mutex mutex;
  static std::map<std::string, CellObs, std::less<>> cache;
  std::lock_guard lock(mutex);
  auto it = cache.find(prefix);
  if (it == cache.end()) it = cache.emplace(prefix, make_cell_obs(prefix)).first;
  return it->second;
}

// Wall-clock spans of the event loop (kRuntime: out of the deterministic
// exports). One name per process, not per cell label: sibling shards merge.
constexpr std::size_t kEventKinds = std::size_t(EventKind::kBlockageEnd) + 1;

struct CellProfile {
  std::array<obs::Histogram, kEventKinds> dispatch_ns;  ///< Indexed by EventKind.
  obs::Histogram mesh_sweep_ns;
};

const CellProfile& cell_profile() {
  static const CellProfile instance = [] {
    auto& r = obs::Registry::global();
    const auto span = [&r](const std::string& name) {
      return r.histogram(name, obs::profile_ns_spec(), obs::MetricClass::kRuntime);
    };
    CellProfile p;
    // EventKind order.
    constexpr std::array<const char*, kEventKinds> kKinds = {
        "join", "leave", "move", "arrival", "service", "blockage_start", "blockage_end"};
    for (std::size_t k = 0; k < kKinds.size(); ++k)
      p.dispatch_ns[k] = span(std::string("cell.dispatch.") + kKinds[k] + "_ns");
    p.mesh_sweep_ns = span("cell.mesh_sweep_ns");
    return p;
  }();
  return instance;
}

}  // namespace

CellEngine::CellEngine(channel::BackscatterChannel channel, CellConfig config)
    : config_(config),
      link_(std::move(channel), config.network.link),
      obs_(&cell_obs(config.metric_prefix)),
      payload_bits_(double(config.payload_symbols) * 2.0) {}

// Out of line so mesh::MeshRuntime is complete where unique_ptr needs it.
CellEngine::CellEngine(CellEngine&&) noexcept = default;
CellEngine& CellEngine::operator=(CellEngine&&) noexcept = default;
CellEngine::~CellEngine() = default;

void CellEngine::set_mesh(mesh::MeshConfig config) {
  MILBACK_REQUIRE(!ran_, "CellEngine::set_mesh: install before begin()");
  mesh_ = std::make_unique<mesh::MeshRuntime>(std::move(config));
}

std::size_t CellEngine::add_node(std::string id, const core::TrafficSpec& spec,
                                 double join_time_s) {
  MILBACK_REQUIRE(!ran_, "CellEngine::add_node: engine already ran");
  require_valid_pose(spec.pose);
  require_non_negative(spec.arrival_rate_bps, "arrival_rate_bps");
  require_non_negative(spec.burstiness, "burstiness");
  require_finite(join_time_s, "join_time_s");
  const NodeId nid = IdTable::global().intern(id);
  const std::size_t index =
      nodes_.add(nid, spec, std::max(join_time_s, 0.0), join_time_s <= 0.0);
  register_node_metrics(index);
  if (join_time_s > 0.0) {
    queue_.push(Event{.time_s = join_time_s, .kind = EventKind::kJoin, .node = index});
  }
  return index;
}

void CellEngine::register_node_metrics(std::size_t i) {
  // Per-node metric names are only built (and interned) when telemetry is
  // live at registration; the handles stay inert otherwise. Names carry the
  // node id, not the cell label: a node keeps its metrics across handoffs.
  if (!obs::metrics_enabled()) return;
  auto& r = obs::Registry::global();
  // First live registration sizes the lazy handle columns (earlier rows get
  // inert handles — they were added with telemetry off).
  nodes_.obs_latency.resize(nodes_.size());
  nodes_.obs_snr.resize(nodes_.size());
  nodes_.obs_drops.resize(nodes_.size());
  const std::string id(nodes_.id[i].view());
  nodes_.obs_latency[i] = r.histogram("cell.node." + id + ".latency_s", kLatencySpec);
  nodes_.obs_snr[i] = r.histogram("cell.node." + id + ".snr_db", kSnrSpec);
  nodes_.obs_drops[i] = r.counter("cell.node." + id + ".sweeps_skipped");
}

void CellEngine::schedule_leave(std::size_t node, double time_s) {
  MILBACK_REQUIRE(node < nodes_.size(), "schedule_leave: node out of range");
  MILBACK_REQUIRE(!ran_ || time_s >= clock_s_,
                  "schedule_leave: time is before the engine's clock");
  MILBACK_REQUIRE(time_s >= nodes_.join_time_s[node],
                  "schedule_leave: time is before the node's join");
  queue_.push(Event{.time_s = time_s, .kind = EventKind::kLeave, .node = node});
}

void CellEngine::schedule_move(std::size_t node, double time_s,
                               const channel::NodePose& pose) {
  MILBACK_REQUIRE(node < nodes_.size(), "schedule_move: node out of range");
  MILBACK_REQUIRE(!ran_ || time_s >= clock_s_,
                  "schedule_move: time is before the engine's clock");
  require_valid_pose(pose);
  queue_.push(Event{.time_s = time_s, .kind = EventKind::kMove, .node = node, .pose = pose});
}

void CellEngine::schedule_blockage(double start_s, double end_s, double loss_db) {
  MILBACK_REQUIRE(end_s > start_s, "schedule_blockage: end must follow start");
  MILBACK_REQUIRE(!ran_ || start_s >= clock_s_,
                  "schedule_blockage: start is before the engine's clock");
  require_non_negative(loss_db, "blockage loss_db");
  queue_.push(Event{.time_s = start_s, .kind = EventKind::kBlockageStart, .value = loss_db});
  queue_.push(Event{.time_s = end_s, .kind = EventKind::kBlockageEnd});
}

NodeId CellEngine::node_id(std::size_t i) const {
  MILBACK_REQUIRE(i < nodes_.size(), "node_id: index out of range");
  return nodes_.id[i];
}

const channel::NodePose& CellEngine::node_pose(std::size_t i) const {
  MILBACK_REQUIRE(i < nodes_.size(), "node_pose: index out of range");
  return nodes_.pose[i];
}

bool CellEngine::node_alive(std::size_t i) const {
  MILBACK_REQUIRE(i < nodes_.size(), "node_alive: index out of range");
  return nodes_.alive[i] != 0;
}

double CellEngine::node_join_time_s(std::size_t i) const {
  MILBACK_REQUIRE(i < nodes_.size(), "node_join_time_s: index out of range");
  return nodes_.join_time_s[i];
}

std::size_t CellEngine::population() const noexcept {
  std::size_t alive = 0;
  for (const auto a : nodes_.alive) alive += a ? 1 : 0;
  return alive;
}

std::size_t CellEngine::memory_bytes() const noexcept {
  return sizeof(*this) + nodes_.allocated_bytes() + queue_.allocated_bytes() +
         (arrivals_.capacity() + slot_start_.capacity() + slot_members_.capacity()) *
             sizeof(std::uint32_t) +
         (mesh_ ? mesh_->allocated_bytes() : 0);
}

std::vector<std::size_t> CellEngine::alive_indices() const {
  std::vector<std::size_t> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_.alive[i]) out.push_back(i);
  }
  return out;
}

void CellEngine::ensure_session(std::size_t i) {
  if (!config_.sessions) return;
  if (nodes_.session.size() < nodes_.size()) nodes_.session.resize(nodes_.size());
  if (nodes_.session[i].has_value()) return;
  nodes_.session[i].emplace(*config_.sessions);
}

void CellEngine::set_multipath(channel::MultipathConfig multipath) {
  MILBACK_REQUIRE(!ran_, "CellEngine::set_multipath: install before begin()");
  link_.channel().set_multipath(std::move(multipath));
}

void CellEngine::set_external_interference_db(double loss_db) {
  require_finite(loss_db, "external interference loss_db");
  require_non_negative(loss_db, "external interference loss_db");
  // Co-channel interference is ambient: it degrades every path.
  auto& ambient = link_.channel().config().ambient_loss_db;
  if (loss_db == ambient) return;
  ambient = loss_db;
  sweep_dirty_ = true;
}

void CellEngine::wake_service(double time_s) {
  if (service_scheduled_) return;
  queue_.push(Event{.time_s = time_s, .kind = EventKind::kService});
  service_scheduled_ = true;
}

std::uint64_t CellEngine::event_key(std::uint64_t node, std::uint64_t event_seq) const {
  MILBACK_REQUIRE(running_, "event_stream: only meaningful mid-run");
  return Rng::stream_key(seed_, node, event_seq);
}

Rng CellEngine::event_stream(std::uint64_t node, std::uint64_t event_seq) const {
  return Rng(event_key(node, event_seq));
}

void CellEngine::dispatch_join(const Event& e) {
  nodes_.alive[e.node] = 1;
  sweep_dirty_ = true;
  ensure_session(e.node);
  peak_population_ = std::max(peak_population_, population());
  wake_service(e.time_s);
}

void CellEngine::schedule_arrivals(const std::vector<std::size_t>& rows,
                                   double time_s, double period_s) {
  MILBACK_REQUIRE(arrivals_.empty(),
                  "schedule_arrivals: a sweep's arrivals are still pending");
  MILBACK_REQUIRE(std::isfinite(time_s) && time_s >= 0.0,
                  "schedule_arrivals: sweep time must be finite and >= 0");
  MILBACK_REQUIRE(nodes_.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "schedule_arrivals: node index exceeds the arrival list's range");
  if (rows.size() > arrivals_.capacity()) {
    // ~12.5% headroom, as the event heap: the list is part of the measured
    // bytes-per-node.
    arrivals_.reserve(
        std::max(rows.size(), arrivals_.capacity() + arrivals_.capacity() / 8 + 16));
  }
  for (const auto i : rows) {
    if (nodes_.arrival_rate_bps[i] <= 0.0) continue;
    arrivals_.push_back(static_cast<std::uint32_t>(i));
  }
  arrival_seq0_ = queue_.reserve_seqs(arrivals_.size());
  arrival_time_s_ = time_s;
  arrival_period_s_ = period_s;
}

void CellEngine::dispatch_arrivals(double time_s) {
  if (arrivals_.empty()) return;
  MILBACK_ASSERT(time_s == arrival_time_s_);
  const obs::ProfileScope profile(
      cell_profile().dispatch_ns[std::size_t(EventKind::kArrival)]);
  const std::size_t n = arrivals_.size();
  report_.events_dispatched += n;
  obs_->ev_arrival.add(n);

  // A bursty arrival draws one Gaussian from its own stream. Gather the
  // next kBlock bursty ones' stream keys (one block of first_gaussians'
  // widest kernel), draw their Gaussians in one batch, then apply every
  // arrival up to the last of them in list order.
  constexpr std::size_t kBlock = 64;
  std::array<std::uint64_t, kBlock> keys{};
  std::array<std::size_t, kBlock> at{};  // list positions of the draws
  std::array<double, kBlock> draws{};
  std::size_t scanned = 0;
  std::size_t applied = 0;
  while (applied < n) {
    std::size_t lanes = 0;
    for (; scanned < n && lanes < kBlock; ++scanned) {
      const std::size_t i = arrivals_[scanned];
      if (!nodes_.alive[i] || nodes_.burstiness[i] <= 0.0) continue;
      keys[lanes] = event_key(std::uint64_t{i}, arrival_seq0_ + scanned);
      at[lanes++] = scanned;
    }
    Rng::first_gaussians({keys.data(), lanes}, 0.0, 0.5, {draws.data(), lanes});
    for (std::size_t k = 0; applied < scanned; ++applied) {
      const std::size_t i = arrivals_[applied];
      if (!nodes_.alive[i]) continue;  // left before the arrival landed
      const double mean_bits = nodes_.arrival_rate_bps[i] * arrival_period_s_;
      double jitter = 1.0;
      if (k < lanes && at[k] == applied) {
        jitter = std::max(0.0, 1.0 + nodes_.burstiness[i] * draws[k++]);
      }
      const double bits = mean_bits * jitter;
      if (bits <= 0.0) continue;
      nodes_.push_chunk(i, bits, time_s);
      nodes_.queued_bits[i] += bits;
      nodes_.offered_bits[i] += bits;
      nodes_.peak_queue_bits[i] =
          std::max(nodes_.peak_queue_bits[i], nodes_.queued_bits[i]);
    }
  }
  arrivals_.clear();
}

double CellEngine::slot_period_s(const std::vector<std::size_t>& alive) const {
  double period_s = 0.0;
  for (std::size_t s = 0; s + 1 < slot_start_.size(); ++s) {
    double slot_time_s = 0.0;
    for (auto m = slot_start_[s]; m < slot_start_[s + 1]; ++m) {
      const double rate_bps = nodes_.rate_bps[alive[slot_members_[m]]];
      if (rate_bps <= 0.0) continue;
      const auto timing = core::compute_timing(
          core::PacketConfig{.preamble = {},
                             .payload_symbols = config_.payload_symbols},
          core::LinkDirection::kUplink, rate_bps / 2.0);
      slot_time_s = std::max(slot_time_s, timing.total_s);
    }
    // milback-analyze: no-reduction(serial event-handler loop in deterministic slot-major order; single thread by construction)
    period_s += slot_time_s;
  }
  return period_s;
}

void CellEngine::recompute_sweep(const std::vector<std::size_t>& alive) {
  MILBACK_REQUIRE(alive.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "recompute_sweep: population exceeds the slot list's range");
  if (!config_.sessions) {
    // Rate recomputation fans out on the TrialRunner: each trial touches
    // only its own node and reads the frozen channel, so the sweep is
    // thread-count invariant.
    const sim::TrialRunner runner(config_.sweep_threads);
    const auto rates = runner.map<double>(alive.size(), [&](std::size_t k) {
      return probe_service_rate_bps(link_.channel(), nodes_.pose[alive[k]],
                                    config_.rate);
    });
    for (std::size_t k = 0; k < alive.size(); ++k) {
      nodes_.rate_bps[alive[k]] = rates[k];
    }
  }

  std::vector<channel::NodePose> poses;
  poses.reserve(alive.size());
  for (const auto i : alive) poses.push_back(nodes_.pose[i]);
  const auto slots = sdm_partition(poses, config_.network.sdm_min_separation_deg);
  slot_start_.clear();
  slot_start_.reserve(slots.size() + 1);
  slot_start_.push_back(0);
  slot_members_.clear();
  slot_members_.reserve(alive.size());
  for (const auto& slot : slots) {
    for (const auto k : slot) slot_members_.push_back(static_cast<std::uint32_t>(k));
    slot_start_.push_back(static_cast<std::uint32_t>(slot_members_.size()));
  }
  sweep_dirty_ = false;
}

void CellEngine::dispatch_service(const Event& e) {
  service_scheduled_ = false;
  const auto alive = alive_indices();
  if (alive.empty()) return;  // a later join re-wakes the sweep

  // Advance the path clock serially before fanning out: moving blockers are
  // evaluated at the sweep time, and every worker sees the same frozen
  // geometry (thread-count invariant by construction).
  link_.channel().set_path_time_s(e.time_s);
  std::vector<core::SessionStep> steps;
  if (config_.sessions) {
    // Each session steps its own node on the shared const link and draws
    // from (seed, node, event seq), so the fan-out is thread-count
    // invariant.
    const sim::TrialRunner runner(config_.sweep_threads);
    steps = runner.map<core::SessionStep>(alive.size(), [&](std::size_t k) {
      auto rng = event_stream(std::uint64_t{alive[k]}, e.seq);
      return nodes_.session[alive[k]]->step(link_, nodes_.pose[alive[k]], rng);
    });
    for (std::size_t k = 0; k < alive.size(); ++k) {
      nodes_.rate_bps[alive[k]] =
          steps[k].state == core::SessionState::kTracking
              ? steps[k].uplink_rate_bps
              : 0.0;
      if (steps[k].localized) {
        obs_->session_snr_db.record(steps[k].budget_snr_db);
        if (!nodes_.obs_snr.empty()) {
          nodes_.obs_snr[alive[k]].record(steps[k].budget_snr_db);
        }
      }
    }
  }

  // Sweep memo. The probes read only the alive poses and the channel's
  // losses, walls and blockers at the path time; the partition reads only
  // the alive poses, in index order. Everything that changes those (or the
  // alive list) marks sweep_dirty_, so a clean sweep without sessions or
  // blockers (the one input that moves with the clock) keeps the last rates
  // and slots: the bits a recompute would give.
  const bool reuse = !sweep_dirty_ && !config_.sessions &&
                     link_.channel().multipath().blockers.empty();
  if (reuse) {
    MILBACK_ASSERT(slot_members_.size() == alive.size());
  } else {
    recompute_sweep(alive);
  }

  // Period = one visit to every slot, each slot lasting as long as its
  // slowest member's packet.
  const double period_s = config_.service_period_s > 0.0
                              ? config_.service_period_s
                              : slot_period_s(alive);
  if (period_s <= 0.0) return;  // nobody servable; churn re-wakes the sweep

  const std::size_t round = report_.service_rounds;
  report_.service_rounds += 1;
  obs_->sweeps.add();
  obs_->sweep_population.record(double(alive.size()));
  for (const auto i : alive) {
    if (nodes_.rate_bps[i] > 0.0) {
      obs_->service_rate_bps.record(nodes_.rate_bps[i]);
    } else {
      obs_->sweeps_skipped_nodes.add();
      if (!nodes_.obs_drops.empty()) nodes_.obs_drops[i].add();
    }
  }
  // The sweep span covers the service window [start, start + period] in sim
  // seconds — the same interval the drained chunks' latencies close against.
  obs::Span sweep_span(obs_->sweep_span, e.time_s,
                       obs::trace_lane(obs::kLaneCell));
  last_period_s_ = period_s;
  double capacity_bps = 0.0;
  for (const auto i : alive) {
    // milback-analyze: no-reduction(serial event-handler loop in deterministic slot-major order; single thread by construction)
    if (nodes_.rate_bps[i] > 0.0) capacity_bps += payload_bits_ / period_s;
  }
  report_.cell_capacity_bps = capacity_bps;

  // Drain: one packet per reachable node per sweep, slot-major.
  std::vector<double> drained(alive.size(), 0.0);
  const double service_done_s = e.time_s + period_s;
  for (std::size_t s = 0; s + 1 < slot_start_.size(); ++s) {
    for (auto m = slot_start_[s]; m < slot_start_[s + 1]; ++m) {
      const std::size_t k = slot_members_[m];
      const std::size_t i = alive[k];
      if (nodes_.rate_bps[i] <= 0.0) continue;
      nodes_.rounds_served[i] += 1;
      double budget = payload_bits_;
      // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
      while (budget > 0.0 && !nodes_.queue_empty(i)) {
        auto& chunk = nodes_.front_chunk(i);
        const double take = std::min(chunk.bits, budget);
        chunk.bits -= take;
        // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
        budget -= take;
        // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
        nodes_.queued_bits[i] -= take;
        // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
        nodes_.delivered_bits[i] += take;
        drained[k] += take;
        if (chunk.bits <= 1e-9) {
          const double latency_s = service_done_s - chunk.arrival_s;
          nodes_.push_latency(i, latency_s);
          obs_->latency_s.record(latency_s);
          if (!nodes_.obs_latency.empty()) nodes_.obs_latency[i].record(latency_s);
          nodes_.pop_front_chunk(i);
        }
      }
    }
  }
  if (mesh_) mesh_sweep(e, alive, service_done_s);
  sweep_span.end(service_done_s);

  if (observer_) {
    std::vector<std::size_t> slot_of(alive.size(), 0);
    for (std::size_t s = 0; s + 1 < slot_start_.size(); ++s) {
      for (auto m = slot_start_[s]; m < slot_start_[s + 1]; ++m) {
        slot_of[slot_members_[m]] = s;
      }
    }
    for (std::size_t k = 0; k < alive.size(); ++k) {
      const std::size_t i = alive[k];
      ServiceObservation obs;
      obs.time_s = e.time_s;
      obs.round = round;
      obs.node = i;
      obs.id = nodes_.id[i];
      obs.rate_bps = nodes_.rate_bps[i];
      obs.slot = slot_of[k];
      obs.drained_bits = drained[k];
      obs.queued_bits = nodes_.queued_bits[i];
      if (config_.sessions) {
        obs.has_session = true;
        obs.session = steps[k];
      }
      observer_(obs);
    }
  }

  // Next sweep and its arrivals (current-period estimate for the window).
  if (service_done_s < duration_s_) {
    schedule_arrivals(alive, service_done_s, period_s);
    wake_service(service_done_s);
  }
}

void CellEngine::mesh_sweep(const Event& e,
                            const std::vector<std::size_t>& alive,
                            double service_done_s) {
  MILBACK_REQUIRE(mesh_ != nullptr, "mesh_sweep: no mesh installed");
  const obs::ProfileScope profile(cell_profile().mesh_sweep_ns);
  // Route discovery, only when churn/mobility/blockage dirtied the topology
  // since the last sweep. The relay link budgets see the same frozen path
  // clock (set_path_time_s above) as the AP links of this sweep.
  if (mesh_->dirty()) {
    const std::size_t n = nodes_.size();
    std::vector<double> xs(n, 0.0);
    std::vector<double> ys(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = nodes_.pose[i].distance_m *
              std::cos(deg2rad(nodes_.pose[i].azimuth_deg));
      ys[i] = nodes_.pose[i].distance_m *
              std::sin(deg2rad(nodes_.pose[i].azimuth_deg));
    }
    obs::Span discover_span(mesh_->discover_trace_id(), e.time_s,
                            obs::trace_lane(obs::kLaneCell, 2));
    mesh_->rebuild(link_.channel(), xs, ys, nodes_.alive, nodes_.rate_bps,
                   e.time_s);
    discover_span.end(e.time_s);
  }

  // Dark nodes push their backlog toward the first relay, one payload per
  // sweep, stalling when the relay buffer is full. Bits leave the origin's
  // queue and stay "in flight" until they drain at the AP.
  std::size_t orphans = 0;
  for (const auto i : alive) {
    if (nodes_.rate_bps[i] > 0.0) continue;
    if (mesh_->hop_count(i) < 2) {
      if (nodes_.queued_bits[i] > 0.0) ++orphans;
      continue;
    }
    double budget = payload_bits_;
    while (budget > 1e-9 && !nodes_.queue_empty(i)) {
      auto& chunk = nodes_.front_chunk(i);
      const double want = std::min(chunk.bits, budget);
      const double got = mesh_->ingest(i, want, chunk.arrival_s);
      if (got <= 1e-9) break;  // first relay's buffer is full
      // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
      chunk.bits -= got;
      // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
      budget -= got;
      // milback-analyze: no-reduction(serial FIFO drain in deterministic queue order; single thread by construction)
      nodes_.queued_bits[i] -= got;
      if (chunk.bits <= 1e-9) nodes_.pop_front_chunk(i);
    }
  }
  mesh_->note_orphans(orphans);

  // Advance every relay queue one hop; chunks that drained at the AP are
  // credited to their origin row, latency closed against the same service
  // window as direct drains.
  const auto& deliveries =
      mesh_->flush(nodes_.rate_bps, nodes_.alive, payload_bits_, service_done_s);
  for (const auto& d : deliveries) {
    // milback-analyze: no-reduction(serial event-handler loop in deterministic delivery order; single thread by construction)
    nodes_.delivered_bits[d.origin] += d.bits;
    if (d.completed) {
      const double latency_s = service_done_s - d.arrival_s;
      nodes_.push_latency(d.origin, latency_s);
      obs_->latency_s.record(latency_s);
      if (!nodes_.obs_latency.empty()) {
        nodes_.obs_latency[d.origin].record(latency_s);
      }
    }
  }
}

void CellEngine::begin(double duration_s, std::uint64_t seed) {
  MILBACK_REQUIRE(!ran_, "CellEngine::run is single-shot; build a fresh engine");
  require_positive(duration_s, "duration_s");
  MILBACK_REQUIRE(!config_.sessions || config_.service_period_s > 0.0,
                  "CellEngine: sessions require a pinned service_period_s "
                  "(acquisition needs sweeps before any rate is known)");
  ran_ = true;
  running_ = true;
  duration_s_ = duration_s;
  seed_ = seed;
  report_ = CellReport{};
  report_.duration_s = duration_s;

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_.alive[i]) ensure_session(i);
  }
  peak_population_ = population();

  // Bootstrap the first sweep. Arrivals for a sweep land before it (one
  // pass as the sweep starts), so the first window needs a period estimate up
  // front: the pinned period, else a budget probe of the initial population.
  // That probe leaves the rates and slots the first sweep would compute.
  const auto alive = alive_indices();
  double hint_s = config_.service_period_s;
  if (hint_s <= 0.0) {
    recompute_sweep(alive);
    hint_s = slot_period_s(alive);
  }
  if (hint_s > 0.0) {
    schedule_arrivals(alive, 0.0, hint_s);
    wake_service(0.0);
  }
  obs_->runs.add();
}

void CellEngine::dispatch(const Event& e) {
  // A sweep's arrivals share its time and dispatch just before it, after
  // that time's churn.
  if (e.kind == EventKind::kService) dispatch_arrivals(e.time_s);
  const obs::ProfileScope profile(cell_profile().dispatch_ns[std::size_t(e.kind)]);
  report_.events_dispatched += 1;
  switch (e.kind) {
    case EventKind::kJoin:
      obs_->ev_join.add();
      if (mesh_) mesh_->mark_dirty();
      dispatch_join(e);
      break;
    case EventKind::kLeave:
      obs_->ev_leave.add();
      if (mesh_) mesh_->mark_dirty();
      sweep_dirty_ = true;
      nodes_.alive[e.node] = 0;
      nodes_.leave_time_s[e.node] = e.time_s;
      break;
    case EventKind::kMove:
      obs_->ev_move.add();
      if (mesh_) mesh_->mark_dirty();
      sweep_dirty_ = true;
      nodes_.pose[e.node] = e.pose;
      if (nodes_.alive[e.node]) wake_service(e.time_s);
      break;
    case EventKind::kArrival:  // never queued: see dispatch_arrivals
      MILBACK_ASSERT(e.kind != EventKind::kArrival);
      break;
    case EventKind::kService:
      obs_->ev_service.add();
      dispatch_service(e);
      break;
    case EventKind::kBlockageStart:
      obs_->ev_blockage_start.add();
      if (mesh_) mesh_->mark_dirty();
      blockage_span_ = obs::Span(obs_->blockage_span, e.time_s,
                                 obs::trace_lane(obs::kLaneCell, 1));
      // Blockage severs only the DIRECT path; a configured reflector
      // routes around it.
      link_.channel().config().blockage_loss_db = e.value;
      sweep_dirty_ = true;
      break;
    case EventKind::kBlockageEnd:
      obs_->ev_blockage_end.add();
      if (mesh_) mesh_->mark_dirty();
      blockage_span_.end(e.time_s);
      link_.channel().config().blockage_loss_db = 0.0;
      sweep_dirty_ = true;
      if (population() > 0) wake_service(e.time_s);
      break;
  }
  // Post-dispatch backlog, pending arrivals included. The gauge has one
  // writer at a time in a fixed order, so its last value is deterministic:
  // an engine's event loop is serial, each shard of a MultiCellEngine writes
  // only its own prefixed gauge, and the serial epoch barrier that follows
  // every advance_to writes that gauge last.
  obs_->queue_depth.set(double(pending_events()));
}

void CellEngine::advance_to(double time_s) {
  MILBACK_REQUIRE(running_, "CellEngine::advance_to: begin() first");
  require_finite(time_s, "time_s");
  const double limit = std::min(time_s, duration_s_);
  while (!queue_.empty() && queue_.top().time_s < limit) {
    dispatch(queue_.pop());
  }
  clock_s_ = std::max(clock_s_, limit);
}

CellReport CellEngine::finish() {
  MILBACK_REQUIRE(running_, "CellEngine::finish: begin() first");
  advance_to(duration_s_);
  running_ = false;
  // A blockage still open at the horizon closes there in the trace.
  blockage_span_.end(duration_s_);

  if (mesh_) {
    report_.mesh =
        mesh_->finalize(link_.channel(), link_.access_point().localizer(),
                        nodes_.pose, nodes_.alive, seed_);
  }
  report_.peak_population = peak_population_;
  report_.final_population = population();
  report_.nodes.reserve(nodes_.size());
  // One buffer for every node's samples: the mean reads them oldest first
  // (its summation order, hence its rounding, is the insertion order), then
  // the percentiles select in place on the same buffer.
  std::vector<double> latencies;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    CellNodeReport r;
    r.id = nodes_.id[i];
    r.join_time_s = nodes_.join_time_s[i];
    r.leave_time_s = nodes_.leave_time_s[i];
    r.offered_bits = nodes_.offered_bits[i];
    r.delivered_bits = nodes_.delivered_bits[i];
    nodes_.latencies(i, latencies);
    r.mean_latency_s = mean(latencies);
    r.p50_latency_s = percentile_in_place(latencies, 50.0);
    r.p95_latency_s = percentile_in_place(latencies, 95.0);
    r.peak_queue_bits = nodes_.peak_queue_bits[i];
    r.final_queue_bits = nodes_.queued_bits[i];
    r.service_rate_bps = nodes_.rate_bps[i];
    r.rounds_served = nodes_.rounds_served[i];
    // Unstable if a served node's final backlog exceeds four periods of
    // arrivals plus two payloads.
    if (nodes_.alive[i] && nodes_.rate_bps[i] > 0.0 && last_period_s_ > 0.0 &&
        nodes_.queued_bits[i] > 4.0 * nodes_.arrival_rate_bps[i] * last_period_s_ +
                                    2.0 * payload_bits_) {
      report_.stable = false;
    }
    // milback-analyze: no-reduction(serial event-handler loop in deterministic slot-major order; single thread by construction)
    report_.aggregate_goodput_bps += nodes_.delivered_bits[i] / duration_s_;
    report_.nodes.push_back(std::move(r));
  }
  CellReport out = std::move(report_);
  report_ = CellReport{};
  return out;
}

// milback-analyze: no-contract(pure composition; begin() validates every input)
CellReport CellEngine::run(double duration_s, std::uint64_t seed) {
  begin(duration_s, seed);
  advance_to(duration_s);
  return finish();
}

CarriedNode CellEngine::detach_node(std::size_t node, double time_s) {
  MILBACK_REQUIRE(running_, "detach_node: handoff is a mid-run operation");
  MILBACK_REQUIRE(node < nodes_.size(), "detach_node: node out of range");
  MILBACK_REQUIRE(nodes_.alive[node], "detach_node: node is not alive here");
  require_finite(time_s, "time_s");
  CarriedNode out;
  out.id = nodes_.id[node];
  out.spec = core::TrafficSpec{nodes_.pose[node], nodes_.arrival_rate_bps[node],
                               nodes_.burstiness[node]};
  out.backlog = nodes_.take_chunks(node);
  out.queued_bits = nodes_.queued_bits[node];
  nodes_.queued_bits[node] = 0.0;
  nodes_.alive[node] = 0;
  nodes_.leave_time_s[node] = time_s;
  if (mesh_) mesh_->mark_dirty();
  sweep_dirty_ = true;
  obs_->ev_handoff_out.add();
  return out;
}

std::size_t CellEngine::attach_node(const CarriedNode& carried, double time_s) {
  MILBACK_REQUIRE(running_, "attach_node: handoff is a mid-run operation");
  MILBACK_REQUIRE(carried.id.valid(), "attach_node: carried id must be interned");
  require_finite(time_s, "time_s");
  const std::size_t index = nodes_.add(carried.id, carried.spec, time_s, true);
  register_node_metrics(index);
  ensure_session(index);
  for (const auto& c : carried.backlog) {
    nodes_.push_chunk(index, c.bits, c.arrival_s);
  }
  nodes_.queued_bits[index] = carried.queued_bits;
  nodes_.peak_queue_bits[index] = carried.queued_bits;
  peak_population_ = std::max(peak_population_, population());
  if (mesh_) mesh_->mark_dirty();
  sweep_dirty_ = true;
  obs_->ev_handoff_in.add();
  wake_service(time_s);
  return index;
}

core::RoundResult CellEngine::run_uplink_round(std::size_t bits_per_node,
                                               milback::Rng& rng) const {
  return run_sdm_round<core::RoundResult>(link_, nodes_, sdm_slots(),
                                          bits_per_node, rng, serve_uplink_node);
}

core::DownlinkRoundResult CellEngine::run_downlink_round(
    std::size_t bits_per_node, milback::Rng& rng) const {
  return run_sdm_round<core::DownlinkRoundResult>(
      link_, nodes_, sdm_slots(), bits_per_node, rng, serve_downlink_node);
}

std::vector<std::vector<std::size_t>> CellEngine::sdm_slots() const {
  return sdm_partition(nodes_.pose, config_.network.sdm_min_separation_deg);
}

double CellEngine::inter_node_isolation_db(std::size_t i, std::size_t j) const {
  MILBACK_REQUIRE(i < nodes_.size() && j < nodes_.size(),
                  "inter_node_isolation_db: index out of range");
  return cell::inter_node_isolation_db(link_.channel(), nodes_.pose[i],
                                       nodes_.pose[j]);
}

double CellEngine::service_rate_bps(const channel::NodePose& pose) const {
  return probe_service_rate_bps(link_.channel(), pose, config_.rate);
}

}  // namespace milback::cell
