// Sharded multi-cell engine: N CellEngines coupled at epoch barriers.
//
// The paper's system is one AP serving tens of nodes; the network regime
// the ROADMAP targets — campus and city deployments, the setting framed by
// "Next-Generation Backscatter Networks for Integrated Communications and
// RF Sensing" (PAPERS.md) — needs many coordinated cells: fixed AP
// placements on a floor plan, frequency reuse between them, nodes that roam
// across coverage boundaries. `MultiCellEngine` shards the simulation one
// cell per `CellEngine` and runs the shards as `sim::TrialRunner` tasks.
//
// Coupling is epoch-synchronous. Simulated time advances in fixed epochs;
// within an epoch every cell dispatches its own events independently (cells
// are parallel tasks, each with its sweep fan-out pinned to one worker), and
// at the barrier the driver serially applies the cross-cell physics:
//
//   * Handoff — a node whose mobility carried it outside its serving cell's
//     coverage radius detaches (leave + backlog extraction) and attaches to
//     the nearest AP, chunks keeping their original arrival stamps so
//     latency accrues across the handoff.
//   * Co-channel interference — cells sharing a frequency channel (cell i
//     uses channel i mod frequency_channels) raise each other's noise
//     floor; the aggregate is folded into each cell's link budget as extra
//     one-way path loss for the next epoch.
//
// A shard is a plain CellEngine: the driver gives cell c the metric prefix
// "cell.c<c>." and begins it with the seed Rng::stream_seed(seed, c), so its
// draws are Rng::stream(seed, c, node, event_seq). A one-AP network's shard
// is therefore bit for bit the standalone cell given that prefix and seed
// (MultiCell.OneApShardIsAStandaloneCell).
//
// Determinism: the barrier runs on the driver thread in cell-index then
// node-index order, every in-cell draw is keyed by (seed, cell), nothing
// crosses cells except at barriers, and the shards' finish() calls run as
// tasks that each touch only their own engine and report slot — so
// MultiCellReport (and the obs export) is bit-identical at any
// MILBACK_SIM_THREADS
// (tests/integration/test_multi_cell_thread_invariance.cpp).
//
// Geometry: APs sit on a 2D floor plan, all sharing one prototype channel.
// A node's global (x, y) maps into its serving cell's frame as
// (distance, azimuth); `GlobalPose::orientation_deg` is the FSA normal
// offset from the AP-node line and is preserved across handoff — the
// modeling simplification being that a tag tracks whichever AP serves it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "milback/cell/cell_engine.hpp"

namespace milback::cell {

/// Fixed AP placement on the deployment plan.
struct ApSite {
  double x_m = 0.0;
  double y_m = 0.0;
};

/// A node's position on the deployment plan (the cell-local pose is derived
/// per serving AP; see MultiCellEngine::local_pose).
struct GlobalPose {
  double x_m = 0.0;
  double y_m = 0.0;
  double orientation_deg = 0.0;  ///< FSA normal vs the serving-AP line.
};

/// A roaming node's offered load: core::TrafficSpec without the pose, which
/// MultiCellEngine::add_node takes on the deployment plan.
struct RoamingTraffic {
  double arrival_rate_bps = 50e3;  ///< Mean offered uplink load.
  double burstiness = 1.0;         ///< Arrival jitter: 0 = CBR, 1 = heavy jitter.
};

/// Multi-cell tuning.
struct MultiCellConfig {
  CellConfig cell{};               ///< Per-shard tuning (metric_prefix and
                                   ///< sweep_threads are overwritten).
  std::vector<ApSite> aps;         ///< One cell per AP; at least one.
  double epoch_s = 0.02;           ///< Barrier interval [s].
  double coverage_radius_m = 10.0; ///< Beyond this range a node hands off
                                   ///< to the nearest AP.
  std::size_t frequency_channels = 1;  ///< Frequency reuse: cell i occupies
                                       ///< channel i mod frequency_channels.
  double interference_node_db = -30.0; ///< Co-channel noise-rise per active
                                       ///< node at the reference distance.
  double interference_ref_distance_m = 25.0;  ///< AP spacing at which one
                                              ///< node contributes exactly
                                              ///< interference_node_db.
  int threads = 0;                 ///< Workers for the per-epoch cell
                                   ///< fan-out (0 = MILBACK_SIM_THREADS).
};

/// One roaming node's whole-network outcome (sums over every cell it
/// visited; per-visit detail stays in the per-cell CellReports).
struct MultiCellNodeReport {
  NodeId id{};
  std::size_t home_cell = 0;       ///< Cell that served the node first.
  std::size_t final_cell = 0;      ///< Cell serving it at the horizon.
  std::size_t handoffs = 0;        ///< Coverage-boundary crossings.
  double offered_bits = 0.0;
  double delivered_bits = 0.0;
  double final_queue_bits = 0.0;
  std::size_t rounds_served = 0;
};

/// Whole-network outcome of a run.
struct MultiCellReport {
  std::vector<CellReport> cells;           ///< Per-cell detail, cell order.
  std::vector<MultiCellNodeReport> nodes;  ///< In add_node order.
  double duration_s = 0.0;
  std::size_t epochs = 0;                  ///< Barriers executed.
  std::size_t handoffs = 0;                ///< Total across all nodes.
  std::size_t peak_population = 0;         ///< Most nodes alive network-wide.
  double aggregate_goodput_bps = 0.0;      ///< Sum over cells.
  double max_interference_db = 0.0;        ///< Worst epoch noise rise.
  bool stable = true;                      ///< Every cell stable.
};

/// N coupled cells on a floor plan.
class MultiCellEngine {
 public:
  /// Builds one CellEngine per AP over copies of `prototype`.
  MultiCellEngine(const channel::BackscatterChannel& prototype,
                  MultiCellConfig config);

  /// Registers a roaming node. Its home cell is the nearest AP to `pose`;
  /// `join_time_s` <= 0 means present from the start. The pose's
  /// coordinates must stay finite as float (the driver stores them so).
  /// Returns the node's global index (stable for the engine's lifetime).
  std::size_t add_node(std::string id, const GlobalPose& pose,
                       const RoamingTraffic& traffic, double join_time_s = 0.0);

  /// add_node(id, pose, {arrival_rate_bps}): burstiness 1, present from the
  /// start. No form takes the rate and a join time as two bare doubles, so
  /// a join time cannot pass for the burstiness.
  // milback-analyze: no-contract(forwards to the checked add_node above)
  std::size_t add_node(std::string id, const GlobalPose& pose,
                       double arrival_rate_bps) {
    return add_node(std::move(id), pose,
                    RoamingTraffic{.arrival_rate_bps = arrival_rate_bps});
  }

  /// Schedules a mobility waypoint on the deployment plan. Waypoints are
  /// applied inside the serving cell at their exact time; handoff (if the
  /// move left coverage) resolves at the next epoch barrier. The pose is
  /// checked as add_node checks it.
  void schedule_waypoint(std::size_t node, double time_s,
                         const GlobalPose& pose);

  /// Schedules the node's departure from the network, at or after its join
  /// time.
  void schedule_leave(std::size_t node, double time_s);

  /// Installs the same scene geometry (walls + moving blockers) on every
  /// shard's channel. Wall coordinates are interpreted in each cell's own
  /// AP-centric frame — the common case is a shared floor-plan motif
  /// (corridor wall at a fixed offset from every AP). Call before run()
  /// (throws ContractViolation after).
  void set_multipath(const channel::MultipathConfig& multipath);

  /// Installs cell `c`'s per-service observer (CellEngine::set_observer).
  /// Cells dispatch as parallel TrialRunner tasks, so observers of
  /// different cells may run concurrently; each is called only from its own
  /// cell's serial event loop, in that cell's node-index order.
  void set_observer(std::size_t c, CellEngine::ServiceObserver observer);

  /// Cell `c`'s engine, read-only (its channel, configuration and rows).
  const CellEngine& cell(std::size_t c) const;

  /// Runs `duration_s` of network time. Single-shot, like CellEngine::run;
  /// the report is a pure function of (scenario, seed) at any worker count.
  MultiCellReport run(double duration_s, std::uint64_t seed);

  /// --- Geometry / introspection -------------------------------------------

  std::size_t cell_count() const noexcept { return engines_.size(); }

  /// Pre-sizes every shard's node columns and the driver's node table for
  /// `per_cell` rows per cell (large fleets avoid capacity doubling, which
  /// would double measured bytes-per-node).
  void reserve_nodes(std::size_t per_cell) {
    nodes_.reserve(per_cell * engines_.size());
    for (auto& e : engines_) e->reserve_nodes(per_cell);
  }

  /// Index of the AP nearest to (x, y) (lowest index wins ties).
  std::size_t nearest_cell(double x_m, double y_m) const;

  /// Maps a plan position into cell `c`'s frame. Distance clamps at 0.1 m
  /// (a node on top of the AP is modeled at 10 cm).
  channel::NodePose local_pose(std::size_t c, const GlobalPose& pose) const;

  /// The cell currently serving `node` (home cell before the run).
  std::size_t node_cell(std::size_t node) const;

  /// Bytes held by all shards' node columns, pools and event queues plus
  /// the driver's own state — the numerator of bytes-per-node
  /// (bench/e2e campus_100k's outcome.bytes_per_node).
  std::size_t memory_bytes() const noexcept;

 private:
  /// Chain terminator for the shared per-node directive chains.
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One scheduled waypoint/leave, stored in the shared directives_ vector
  /// and chained per node (most nodes schedule nothing and pay only the
  /// 4-byte chain head). Plan coordinates are float: the driver's node
  /// record is budgeted, and centimeter-scale rounding on a floor plan is
  /// far below the channel model's fidelity. Times stay double — they
  /// become engine event times and must survive epoch comparisons exactly.
  struct Directive {
    double time_s = 0.0;
    float x_m = 0.0f, y_m = 0.0f, orientation_deg = 0.0f;
    std::uint32_t next = kNone;
    bool leave = false;
  };

  /// Per-node driver state, 32 bytes. Everything else lives in the serving
  /// cell's SoA columns (traffic spec, join time, the interned id) or in
  /// shared side tables (directive chain, handoff history) — this record is
  /// the per-node cost of the multi-cell layer and is part of the
  /// per-node memory budget.
  struct GlobalNode {
    float x_m = 0.0f, y_m = 0.0f;    ///< Last applied plan position.
    float orientation_deg = 0.0f;    ///< FSA normal vs the serving-AP line.
    std::uint32_t cell = 0;          ///< Serving cell.
    std::uint32_t local = 0;         ///< Index within the serving cell.
    std::uint32_t dir_head = kNone;  ///< Next pending directive (shared pool).
    std::uint32_t handoffs = 0;      ///< Coverage-boundary crossings.
    std::uint8_t left = 0;           ///< Permanently departed.
  };

  /// A (cell, local) pair a node occupied before a handoff, in handoff
  /// order network-wide (per-node order is recovered by a stable sort).
  struct PastInstance {
    std::uint32_t node = 0;
    std::uint32_t cell = 0;
    std::uint32_t local = 0;
  };

  GlobalPose node_pose(const GlobalNode& n) const noexcept {
    return GlobalPose{double(n.x_m), double(n.y_m), double(n.orientation_deg)};
  }
  void forward_directives(double until_s);
  /// Applies node i's handoff, if due, at the barrier at `time_s` (or marks
  /// it departed). Returns whether it is still waiting to join.
  bool examine(std::size_t i, double time_s);
  /// `all` examines every node (the first barrier); later barriers examine
  /// only watch_.
  void barrier(double time_s, bool all);

  MultiCellConfig config_;
  std::vector<std::unique_ptr<CellEngine>> engines_;
  /// Per-cell coupling gauges (cell.c<k>.interference_db / .queue_depth),
  /// written from the serial epoch barrier.
  std::vector<obs::Gauge> interference_gauges_;
  std::vector<obs::Gauge> depth_gauges_;
  std::vector<GlobalNode> nodes_;
  std::vector<Directive> directives_;   ///< Shared store, chained per node.
  std::vector<PastInstance> past_;      ///< Pre-handoff instances, in order.
  /// Nodes whose directive chain is not yet drained, in node order.
  std::vector<std::uint32_t> directed_;
  /// Nodes the next barrier examines: those still waiting to join at the
  /// last barrier (node order), then those forward_directives reached since
  /// (node order). Every other node's barrier outcome cannot have changed.
  std::vector<std::uint32_t> watch_;
  std::size_t joiners_ = 0;  ///< Length of watch_'s waiting-to-join run.
  bool ran_ = false;
  std::size_t handoffs_ = 0;
  std::size_t peak_population_ = 0;
  double max_interference_db_ = 0.0;
};

}  // namespace milback::cell
