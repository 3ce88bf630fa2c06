// Discrete-event cell engine: one AP serving a *dynamic* population of
// backscatter nodes.
//
// The engine is the one multi-node API. Node churn (join/leave/move),
// blockage episodes and SDM service sweeps are events on a single queue
// ordered by (time, rank, seq), and each sweep's traffic arrivals run as one
// pass on seqs reserved from it; see event_queue.hpp for the ordering
// contract. A static population can also be served one waveform-level SDM
// round at a time (run_uplink_round/run_downlink_round), and each node can
// run a full AdaptiveSession (CellConfig::run_sessions).
//
// Determinism: run(duration, seed) is a pure function of the scenario and
// the seed. Every random draw comes from Rng::stream(seed, node, event.seq)
// — keyed by the event's queue-stamped sequence number, never by a shared
// generator; a sweep's arrivals run as one pass on a block of seqs reserved
// from the queue — and the per-sweep fan-out runs on sim::TrialRunner under
// its thread-count-invariance contract, so the CellReport is bit-identical with
// 1 worker or N (tests/integration/test_cell_thread_invariance.cpp). A
// shard of a MultiCellEngine is this same engine, begun with the seed
// Rng::stream_seed(seed, cell): its draws are Rng::stream(seed, cell, node,
// event.seq), so sibling cells sharing one network seed stay decorrelated
// with no shard-specific code here.
//
// Storage is struct-of-arrays (node_soa.hpp) over pooled chains; the event
// queue (event_queue.hpp) holds no per-node arrival events, so its depth
// follows the scheduled churn, not the population (bench/e2e campus_100k
// reports the measured outcome.bytes_per_node).
//
// Sweep memo: a service sweep re-probes every alive node and re-partitions
// the SDM slots only when something those read has changed since the last
// sweep (churn, handoff, blockage or interference); otherwise it
// reuses the last rates and slots, which are then the same bits a
// recompute would give (DESIGN.md §6; SweepMemo tests).
//
// tests/integration/test_cell_equivalence.cpp pins the engine against
// reference loops of the original per-round and per-MAC-run service.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "milback/cell/event_queue.hpp"
#include "milback/cell/node_soa.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/core/rate_adapt.hpp"
#include "milback/core/round_types.hpp"
#include "milback/core/session.hpp"
#include "milback/mesh/mesh.hpp"
#include "milback/obs/registry.hpp"
#include "milback/obs/span.hpp"

namespace milback::sim {
class TrialRunner;
}

namespace milback::mesh {
class MeshRuntime;
}

namespace milback::cell {

struct CellObs;

/// Engine tuning.
struct CellConfig {
  core::NetworkConfig network{};      ///< Link + SDM configuration.
  core::RateAdaptConfig rate{};       ///< Shared rate-adaptation thresholds.
  std::size_t payload_symbols = 512;  ///< Symbols per service packet.
  double service_period_s = 0.0;      ///< > 0 pins the sweep period; 0 derives
                                      ///< it per sweep from the SDM slot times.
  bool run_sessions = false;          ///< Drive a full AdaptiveSession per node
                                      ///< (acquire/track/lost) instead of the
                                      ///< budget probe. Requires a pinned
                                      ///< service_period_s.
  core::SessionConfig session{};      ///< Per-node session tuning (run_sessions).
  std::string metric_prefix = "cell.";  ///< Prefix of the cell-wide metric
                                      ///< names (<prefix>sweeps, ...); a
                                      ///< MultiCellEngine gives shard k
                                      ///< "cell.c<k>." so sibling cells never
                                      ///< share a metric.
  int sweep_threads = 0;              ///< TrialRunner workers for the per-sweep
                                      ///< fan-out: 0 = MILBACK_SIM_THREADS /
                                      ///< hardware default; >= 1 pins. The
                                      ///< MultiCellEngine pins 1 — parallelism
                                      ///< is across cells, not within one.
};

/// One node's slice of one service sweep, handed to the observer.
struct ServiceObservation {
  double time_s = 0.0;          ///< Sweep start time.
  std::size_t round = 0;        ///< 0-based service-sweep index.
  std::size_t node = 0;         ///< Node index (engine-wide, stable).
  NodeId id{};                  ///< Interned node identifier (id.view() for text).
  double rate_bps = 0.0;        ///< Service rate chosen this sweep (0 = skipped).
  std::size_t slot = 0;         ///< The node's SDM slot this sweep (0-based).
  double drained_bits = 0.0;    ///< Queue bits drained this sweep.
  double queued_bits = 0.0;     ///< Backlog after the sweep.
  bool has_session = false;     ///< Whether `session` is meaningful.
  core::SessionStep session{};  ///< The node's session round (run_sessions).
};

/// Per-node outcome of a run.
struct CellNodeReport {
  NodeId id{};                     ///< Interned identifier (id.view() for text).
  double join_time_s = 0.0;        ///< When the node entered the cell.
  double leave_time_s = -1.0;      ///< When it left (-1 = stayed to the end).
  double offered_bits = 0.0;       ///< Bits generated.
  double delivered_bits = 0.0;     ///< Bits drained through the air.
  double mean_latency_s = 0.0;     ///< Mean queueing+service latency.
  double p50_latency_s = 0.0;      ///< Median latency.
  double p95_latency_s = 0.0;      ///< Tail latency.
  double peak_queue_bits = 0.0;    ///< Worst backlog.
  double final_queue_bits = 0.0;   ///< Backlog at the end (growth = overload).
  double service_rate_bps = 0.0;   ///< Rate chosen at the last sweep.
  std::size_t rounds_served = 0;   ///< Sweeps in which the node got a slot.
};

/// Whole-cell outcome of a run.
struct CellReport {
  std::vector<CellNodeReport> nodes;     ///< In add_node order.
  double duration_s = 0.0;               ///< Simulated time.
  std::size_t service_rounds = 0;        ///< Service sweeps executed.
  std::size_t events_dispatched = 0;     ///< Total events handled.
  std::size_t peak_population = 0;       ///< Most nodes alive at once.
  std::size_t final_population = 0;      ///< Nodes alive at the end.
  double aggregate_goodput_bps = 0.0;    ///< Total delivered / duration.
  double cell_capacity_bps = 0.0;        ///< Saturation goodput (last sweep).
  bool stable = true;                    ///< No served queue grew without bound.
  mesh::MeshReport mesh;                 ///< Mesh outcome; empty (zero nodes)
                                         ///< unless set_mesh installed one.
};

/// A node in flight between cells: everything the target cell needs to
/// resume service — identity, traffic spec (pose already local to the new
/// AP), and the unfinished backlog with original arrival stamps so latency
/// keeps accruing across the handoff.
struct CarriedNode {
  NodeId id{};
  core::TrafficSpec spec{};
  std::vector<Chunk> backlog;   ///< FIFO order, oldest first.
  double queued_bits = 0.0;     ///< Sum over backlog (source-cell accounting).
};

/// The discrete-event cell.
class CellEngine {
 public:
  /// Called once per alive node per service sweep, in node-index order.
  using ServiceObserver = std::function<void(const ServiceObservation&)>;

  /// Builds the engine over a channel.
  CellEngine(channel::BackscatterChannel channel, CellConfig config = {});

  // Move-only (the mesh runtime is held by unique_ptr to an incomplete
  // type, so the special members live in the .cpp).
  CellEngine(CellEngine&&) noexcept;
  CellEngine& operator=(CellEngine&&) noexcept;
  ~CellEngine();

  /// Registers a node. The pose needs a positive distance and finite
  /// bearing and orientation; the arrival rate and burstiness must be
  /// finite and >= 0. Nodes with `join_time_s` <= 0 are present from the
  /// start; later joins enter the cell as kJoin events. Returns the node's
  /// index (stable for the engine's lifetime).
  std::size_t add_node(std::string id, const core::TrafficSpec& spec,
                       double join_time_s = 0.0);

  /// Schedules the node's departure (its backlog freezes at that instant).
  /// Once the run has begun, this and every schedule_* call below need a
  /// time at or after the last advance_to limit: the engine has already
  /// dispatched everything before it.
  void schedule_leave(std::size_t node, double time_s);

  /// Schedules a pose update (mobility waypoint). The pose is checked as
  /// add_node checks it.
  void schedule_move(std::size_t node, double time_s,
                     const channel::NodePose& pose);

  /// Schedules a blockage episode: `loss_db` of extra one-way path loss on
  /// the DIRECT path of every AP-node link from `start_s` to `end_s`.
  /// With a multipath scene installed (set_multipath) the loss severs only
  /// the direct ray; service rates are recomputed from the surviving
  /// reflector paths. Without one this degenerates to the legacy binary
  /// link gate.
  void schedule_blockage(double start_s, double end_s, double loss_db);

  /// Installs the scene geometry (walls + moving blockers) on the cell's
  /// channel and every live session's channel copy. Call before begin()
  /// (throws ContractViolation after); the per-sweep path clock is advanced
  /// by the service dispatcher. Any blocker keeps every sweep re-probing.
  void set_multipath(channel::MultipathConfig multipath);

  /// Installs (or, with `config.enabled == false`, uninstalls) the
  /// multi-hop relay mesh. Call before begin(), like set_multipath. With a
  /// mesh installed, nodes the AP cannot serve directly push their backlog
  /// through store-and-forward relays during each service sweep, and the
  /// final report carries a MeshReport (routes, relay traffic, and
  /// anchor-fused or radar positions). Without one the engine never touches
  /// the mesh layer and runs bit-identically to the pre-mesh build.
  void set_mesh(mesh::MeshConfig config);

  /// Installs the per-service observer (benches tap per-sweep detail here).
  void set_observer(ServiceObserver observer) { observer_ = std::move(observer); }

  /// Runs `duration_s` of cell time. Single-shot: a CellEngine instance
  /// runs once (build a fresh engine per trial). The report is a pure
  /// function of (scenario, seed) at any worker count. Equivalent to
  /// begin + advance_to(duration_s) + finish.
  CellReport run(double duration_s, std::uint64_t seed);

  /// --- Incremental stepping (the MultiCellEngine shard surface) -----------
  /// A sharded run interleaves cells at epoch barriers: each epoch the
  /// driver calls advance_to(epoch end) on every cell, then applies
  /// cross-cell coupling (handoff, interference) before the next epoch.

  /// Starts a run without dispatching: bootstraps the first sweep and
  /// arrival window. Same single-shot contract as run().
  void begin(double duration_s, std::uint64_t seed);

  /// Dispatches every event strictly before min(time_s, duration). Safe to
  /// call repeatedly with non-decreasing times. Requires begin().
  void advance_to(double time_s);

  /// Closes the run (remaining trace spans, report construction). Requires
  /// begin(); advance_to(duration) is implied.
  CellReport finish();

  /// Removes an alive node for handoff at `time_s`: it leaves this cell's
  /// report (leave_time_s = time_s, backlog zeroed) and its unfinished
  /// chunks travel with the returned CarriedNode. Offered bits stay counted
  /// here; the chunks' delivered bits land wherever they finally drain.
  CarriedNode detach_node(std::size_t node, double time_s);

  /// Admits a node handed off from a sibling cell at `time_s`: joins alive
  /// with the carried backlog restored (original arrival stamps, so latency
  /// spans the handoff). Returns the node's index in *this* cell.
  std::size_t attach_node(const CarriedNode& carried, double time_s);

  /// Extra one-way path loss [dB] from co-channel sibling cells, applied on
  /// top of any active blockage episode through the same channel fold. The
  /// MultiCellEngine recomputes this at every epoch barrier; an unchanged
  /// value changes nothing, so the next sweep may reuse the last rates.
  void set_external_interference_db(double loss_db);

  /// --- Static-population one-shots ---------------------------------------

  /// One waveform-level uplink SDM round over all registered nodes: every
  /// node sends `bits_per_node` random bits, and nodes in the same slot
  /// transmit concurrently and interfere. Draws exactly one value from
  /// `rng`; the per-node work runs on sim::TrialRunner and the result is
  /// bit-identical at any MILBACK_SIM_THREADS.
  core::RoundResult run_uplink_round(std::size_t bits_per_node,
                                     milback::Rng& rng) const;

  /// One waveform-level downlink SDM round over all registered nodes:
  /// concurrent beams within a slot leak into each other through the horn
  /// pattern. Same RNG and thread-count contract as run_uplink_round.
  core::DownlinkRoundResult run_downlink_round(std::size_t bits_per_node,
                                               milback::Rng& rng) const;

  /// Greedy SDM partition of all registered nodes.
  std::vector<std::vector<std::size_t>> sdm_slots() const;

  /// Beam isolation [dB] between registered nodes i and j.
  double inter_node_isolation_db(std::size_t i, std::size_t j) const;

  /// Budget-based service rate [bps] for a pose (0 = not worth a slot).
  double service_rate_bps(const channel::NodePose& pose) const;

  /// --- Accessors -----------------------------------------------------------

  const core::MilBackLink& link() const noexcept { return link_; }
  const CellConfig& config() const noexcept { return config_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Pre-sizes the node columns and the arrival list for `n` rows (large
  /// fleets avoid capacity growth bursts during build-up; the steady state
  /// pends about one arrival per node).
  void reserve_nodes(std::size_t n) {
    nodes_.reserve(n);
    arrivals_.reserve(n);
  }
  NodeId node_id(std::size_t i) const;
  const channel::NodePose& node_pose(std::size_t i) const;
  bool node_alive(std::size_t i) const;
  /// When node `i` joins (epoch drivers distinguish "not joined yet" from
  /// "left" for rows their cell reports as not alive).
  double node_join_time_s(std::size_t i) const;
  /// Nodes currently alive.
  std::size_t population() const noexcept;
  /// Pending events, the next sweep's arrivals included (epoch drivers use
  /// this to detect an idle cell).
  std::size_t pending_events() const noexcept {
    return queue_.size() + arrivals_.size();
  }
  /// Bytes held by node columns, pooled chains, the event queue, the
  /// arrival list and the kept SDM slots — the simulation state
  /// outcome.bytes_per_node divides by population.
  std::size_t memory_bytes() const noexcept;

 private:
  std::vector<std::size_t> alive_indices() const;
  void ensure_session(std::size_t i);
  void apply_channel_loss();
  /// Service period of the kept SDM slots over the `alive` rows: each slot
  /// lasts as long as its slowest member's packet at the current rates,
  /// summed slot-major.
  double slot_period_s(const std::vector<std::size_t>& alive) const;
  /// Re-probes the `alive` rows' rates and re-partitions them into the kept
  /// slots (slot_start_/slot_members_), at the channel's current path time.
  void recompute_sweep(const std::vector<std::size_t>& alive);
  /// Schedules a service sweep at `time_s` unless one is already pending.
  void wake_service(double time_s);
  /// Per-event randomness: Rng::stream(seed, node, seq). The stream is
  /// pure — identical at any worker count.
  Rng event_stream(std::uint64_t node, std::uint64_t event_seq) const;
  /// event_stream's engine seed, Rng::stream_key(seed, node, seq): the key
  /// the arrival pass draws its jitter with (Rng::first_gaussians).
  std::uint64_t event_key(std::uint64_t node, std::uint64_t event_seq) const;
  void register_node_metrics(std::size_t i);
  void dispatch(const Event& e);
  void dispatch_join(const Event& e);
  /// Lists the arrivals of the sweep at `time_s`: one per row of `rows`
  /// with a positive arrival rate, over a window of `period_s`, on a block
  /// of reserved seqs — the seqs one kArrival push per row would take.
  void schedule_arrivals(const std::vector<std::size_t>& rows, double time_s,
                         double period_s);
  /// Runs the listed arrivals as one pass at their sweep's `time_s`, where
  /// their events would dispatch (after that time's churn, before the
  /// service), each as its own event would: alive check, rate read now,
  /// jitter from event_stream(node, seq).
  void dispatch_arrivals(double time_s);
  void dispatch_service(const Event& e);
  /// Mesh leg of one service sweep: rebuild routes when the topology is
  /// dirty, ingest dark nodes' backlog toward their first relay, advance
  /// every relay queue one hop, and credit AP-drained chunks back to their
  /// origin rows.
  void mesh_sweep(const Event& e, const std::vector<std::size_t>& alive,
                  double service_done_s);

  CellConfig config_;
  core::MilBackLink link_;
  NodeSoA nodes_;
  EventQueue queue_;
  std::vector<std::uint32_t> arrivals_;  ///< Rows with a pending arrival,
                                         ///< in seq order (schedule_arrivals).
  std::uint64_t arrival_seq0_ = 0;       ///< Seq of arrivals_[0].
  double arrival_time_s_ = 0.0;          ///< The pending arrivals' sweep time.
  double arrival_period_s_ = 0.0;        ///< Their arrival window.
  /// The last sweep's SDM slots in CSR form: slot s holds the positions
  /// slot_members_[slot_start_[s] .. slot_start_[s + 1]) of that sweep's
  /// alive list, which a clean sweep's alive list equals.
  std::vector<std::uint32_t> slot_start_;
  std::vector<std::uint32_t> slot_members_;
  /// Set by everything that changes what a sweep's probes or partition
  /// read (join, leave, move, handoff, blockage, a changed interference);
  /// cleared by the sweep that recomputes. The scene needs no mark:
  /// set_multipath runs only before begin(), while the flag is still set.
  /// While clear, and with sessions off and no blockers in the scene, a
  /// sweep reuses nodes_.rate_bps and the slots.
  bool sweep_dirty_ = true;
  ServiceObserver observer_;
  const CellObs* obs_;       ///< Label-scoped cell-wide metric handles.
  bool service_scheduled_ = false;
  bool ran_ = false;
  bool running_ = false;
  obs::Span blockage_span_;  ///< Open while a blockage episode is active.
  double payload_bits_ = 0.0;
  double last_period_s_ = 0.0;
  std::size_t peak_population_ = 0;
  double duration_s_ = 0.0;
  double clock_s_ = 0.0;     ///< Last advance_to limit: everything before it
                             ///< has been dispatched.
  std::uint64_t seed_ = 0;
  double blockage_db_ = 0.0;
  double external_db_ = 0.0;
  std::unique_ptr<mesh::MeshRuntime> mesh_;  ///< Null unless set_mesh ran.
  CellReport report_;        ///< Accumulated during dispatch, sealed by finish().
};

}  // namespace milback::cell
