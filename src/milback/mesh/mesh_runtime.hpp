// Mesh runtime: the per-cell relay state the cell engine drives.
//
// The engine owns the SoA node columns and the event loop; this class owns
// everything mesh: the neighbor/route tables (rebuilt when churn, mobility
// or a blockage episode dirties the topology), the per-node store-and-
// forward relay queues, and the mesh metrics. The split keeps
// `milback_mesh` free of cell-engine types (node state crosses the
// boundary as spans and plain indices), so the library layers cleanly
// between `milback_ap` and `milback_core`.
//
// Store-and-forward contract: a chunk moves at most ONE hop per service
// sweep. The engine ingests a dark node's backlog toward its first relay;
// `flush` then advances every relay queue one hop in node-index order —
// draining to the AP where the relay has direct service — and stages all
// moves so nothing traverses two hops in one sweep. Relay occupancy is
// bounded by `relay_buffer_bits` (forwarding toward a full relay stalls at
// the sender) and is charged to the engine's per-node byte budget through
// `allocated_bytes`.
//
// Every method is called from the engine's (serial) event dispatch, so the
// runtime needs no synchronization; metrics go through the obs registry's
// thread-local sinks and merge exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "milback/channel/backscatter_channel.hpp"
#include "milback/mesh/anchor_fusion.hpp"
#include "milback/mesh/mesh.hpp"
#include "milback/mesh/neighbor_table.hpp"
#include "milback/mesh/routing.hpp"

namespace milback::mesh {

class MeshRuntime {
 public:
  /// One relay-queue drain step's outcome, handed back to the engine so it
  /// can credit delivered bits and close latencies on the ORIGIN node.
  struct Delivery {
    std::uint32_t origin = 0;
    double bits = 0.0;
    double arrival_s = 0.0;  ///< Original arrival stamp at the origin.
    bool completed = false;  ///< The chunk fully drained (close latency).
  };

  /// Builds the runtime; its metrics are the process-wide "mesh.*".
  explicit MeshRuntime(MeshConfig config);

  const MeshConfig& config() const noexcept { return config_; }

  /// Topology changed (join/leave/move/blockage/handoff): the next sweep
  /// must rediscover routes.
  void mark_dirty() noexcept { dirty_ = true; }
  bool dirty() const noexcept { return dirty_; }

  /// Trace-name id of the `mesh.discover` sim-time span (the engine opens
  /// the span around rebuild so it lands on the cell lane).
  std::uint32_t discover_trace_id() const noexcept;

  /// Rediscovers the topology: neighbor table from pairwise link budgets
  /// over the (translated) multipath scene, then the bounded-TTL flood.
  /// `direct` roots are nodes with a live AP service rate. All spans are
  /// node-index order and share one size.
  void rebuild(const channel::MultipathConfig& scene, double blockage_loss_db,
               double ambient_loss_db, std::span<const double> x_m,
               std::span<const double> y_m,
               std::span<const std::uint8_t> alive,
               std::span<const double> rate_bps, double time_s);

  /// Whether node `i` currently has a multi-hop route (false for direct
  /// nodes only when they are also unrouted — direct nodes are hop 1).
  bool has_route(std::size_t i) const noexcept {
    return routes_.reachable(i);
  }
  std::uint32_t hop_count(std::size_t i) const noexcept {
    return i < routes_.routes.size() ? routes_.routes[i].hop_count : 0;
  }
  std::uint32_t next_hop(std::size_t i) const noexcept {
    return i < routes_.routes.size() ? routes_.routes[i].next_hop : kNoNode;
  }

  /// Offers `bits` of node `origin`'s backlog to its first relay. Returns
  /// the bits accepted (0 when the relay buffer is full); accepted bits are
  /// in flight until they drain at the AP. Requires a routed, non-direct
  /// origin (hop_count >= 2).
  double ingest(std::size_t origin, double bits, double arrival_s);

  /// Records `count` orphaned dark nodes (backlog but no route) this sweep.
  void note_orphans(std::size_t count);

  /// Advances every relay queue one hop (AP drain where the relay has
  /// direct service, forward otherwise), dropping the buffers of relays
  /// that left the cell. Returns the drain ops of this sweep; the reference
  /// stays valid until the next call.
  const std::vector<Delivery>& flush(std::span<const double> rate_bps,
                                     std::span<const std::uint8_t> alive,
                                     double payload_bits, double now_s);

  /// Bytes held by tables, relay queues and stat columns (capacity) — the
  /// mesh's share of the engine's per-node byte budget.
  std::size_t allocated_bytes() const noexcept;

  /// Seals the MeshReport: routes, per-node relay stats, anchor-fused
  /// positions, and — for <=1-hop nodes when configured — the AP's full
  /// radar localization, keyed Rng::stream(seed, kMeshStreamTag, node).
  /// Serial; call once from CellEngine::finish().
  MeshReport finalize(const channel::BackscatterChannel& channel,
                      std::span<const channel::NodePose> poses,
                      std::span<const std::uint8_t> alive, std::uint64_t seed);

 private:
  /// A chunk parked at a relay, FIFO within its queue.
  struct RelayChunk {
    double bits = 0.0;
    double arrival_s = 0.0;
    std::uint32_t origin = 0;
  };
  /// One relay's buffer: vector-backed FIFO with a head cursor (compacted
  /// when the dead prefix dominates).
  struct RelayQueue {
    std::vector<RelayChunk> chunks;
    std::size_t head = 0;
    double bits = 0.0;
    bool empty() const noexcept { return head >= chunks.size(); }
  };
  struct StagedChunk {
    std::uint32_t dst = 0;
    RelayChunk chunk{};
  };

  void ensure_sized(std::size_t n);
  void push_queue(std::uint32_t dst, const RelayChunk& chunk);
  double capacity_left_bits(std::uint32_t dst) const noexcept;

  MeshConfig config_;
  NeighborTable neighbors_;
  RouteTable routes_;
  std::vector<RelayQueue> queues_;
  std::vector<StagedChunk> staging_;     ///< This sweep's hop moves, in order.
  std::vector<double> staged_bits_;      ///< Per-dst staged load (capacity).
  std::vector<Delivery> deliveries_;     ///< Reused by flush().
  bool dirty_ = true;
  bool built_ = false;

  // Report accumulators (node-index order).
  std::vector<double> relayed_bits_;
  std::vector<double> origin_bits_;
  std::vector<double> origin_latency_sum_s_;
  std::vector<std::uint32_t> origin_chunks_;
  std::vector<double> in_flight_bits_;
  std::size_t discoveries_ = 0;
  std::size_t reroutes_ = 0;
  std::size_t forwards_ = 0;
  std::size_t orphan_sweeps_ = 0;
  std::size_t delivered_chunks_ = 0;
  double relayed_bits_total_ = 0.0;
  double dropped_bits_ = 0.0;
  double peak_relay_queue_bits_ = 0.0;
  std::size_t connected_ = 0;
  std::size_t population_ = 0;
  std::size_t max_hop_count_ = 0;
};

}  // namespace milback::mesh
