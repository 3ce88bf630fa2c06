// Multi-hop backscatter mesh: configuration and report types.
//
// The paper's network is strictly single-hop node <-> AP, so any tag outside
// one AP's FSA-steerable range is dark. The mesh layer extends the cell
// engine with relay-assisted topologies — the architecture the backscatter
// surveys (PAPERS.md: "Next-Generation Backscatter Networks", "A Survey of
// mmWave Backscatter") position as the field's next step: nodes out of AP
// range reach it through neighbors, and anchor nodes at surveyed positions
// give out-of-range nodes coarse positions by hop-distance fusion.
//
// Layering: `milback_mesh` sits between `milback_ap` and `milback_core`.
// It owns the pure topology math (neighbor table, deterministic routing,
// anchor fusion) plus the store-and-forward relay state (`MeshRuntime`);
// the cell engine drives it from the service sweep and owns all SoA
// bookkeeping. Install via `CellEngine::set_mesh` (mirroring
// `set_multipath`); with no mesh installed the engine never touches this
// layer and behaves bit-identically to the pre-mesh build
// (tests/integration/test_mesh.cpp, MeshEquivalence). Relays never span
// cells, and a MultiCellEngine installs no mesh on its shards.
//
// Determinism: every structure here is a pure function of (topology,
// config, sim time). Route selection is lexicographic over
// (hop_count, -min_link_margin_db, node index) — no RNG, no map-iteration
// order (ordered containers only; analyzer check A2 enforces this for
// anything feeding MeshReport). The only stochastic entry point is the
// optional AP radar fix for <=1-hop nodes, keyed
// Rng::stream(seed, kMeshStreamTag, node) on the engine's seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace milback::mesh {

/// "No node" sentinel for next-hop links and route tables.
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

/// Stream-id tag separating mesh localization draws from every other
/// consumer of `Rng::stream(seed, ...)`.
inline constexpr std::uint64_t kMeshStreamTag = 0x6d657368ULL;  // "mesh"

/// An anchor: a node whose plan position is surveyed at deployment time
/// (the Location-Based_WSN design — fixed reference points the rest of the
/// mesh ranges against by hop count). Coordinates are in the serving AP's
/// frame.
struct MeshAnchor {
  std::uint32_t node = 0;  ///< Engine node index.
  double x_m = 0.0;        ///< Surveyed plan position.
  double y_m = 0.0;
};

/// Mesh tuning. The relay link model is a short-range node-to-node budget
/// anchored at 1 m: a pair at distance d sees
/// `relay_snr_at_1m_db - (fspl(d) - fspl(1 m)) - path losses`, evaluated
/// over the same multipath PathSet as AP links — so walls carry relay edges
/// around blockage and moving blockers sever them, exactly like AP links.
struct MeshConfig {
  double carrier_hz = 28e9;          ///< FSPL reference for relay margins.
  double relay_snr_at_1m_db = 28.0;  ///< Node-node link SNR at 1 m (sets the
                                     ///< relay range: ~8 m at the defaults).
  double relay_min_snr_db = 10.0;    ///< Edge threshold; the margin of a
                                     ///< link is its SNR minus this.
  std::size_t max_ttl = 6;           ///< Route-discovery flood bound: routes
                                     ///< longer than this many hops (AP leg
                                     ///< included) are not discovered.
  double relay_buffer_bits = 65536.0;  ///< Per-node store-and-forward
                                       ///< capacity; forwarding toward a
                                       ///< full relay stalls at the origin.
  double mean_hop_m = 6.0;           ///< DV-hop fallback hop length when no
                                     ///< anchor pair is mesh-reachable.
  bool localize_direct = true;       ///< Run the AP's full radar
                                     ///< localization for <=1-hop nodes in
                                     ///< the final report (anchor fusion
                                     ///< covers the rest).
  std::vector<MeshAnchor> anchors;   ///< Surveyed reference nodes.
};

/// One node's mesh-layer outcome.
struct MeshNodeReport {
  std::uint32_t node = 0;          ///< Engine node index.
  bool reachable = false;          ///< Has a route to the AP (or is direct).
  std::uint32_t hop_count = 0;     ///< Hops to the AP: 1 = direct, 0 = none.
  std::uint32_t next_hop = kNoNode;  ///< First relay (kNoNode when direct).
  double route_margin_db = 0.0;    ///< Bottleneck relay-link margin on the
                                   ///< route (+inf convention: direct nodes
                                   ///< report 0 — no relay link to bound).
  double relayed_bits = 0.0;       ///< Bits this node forwarded for others.
  double origin_bits = 0.0;        ///< Own bits delivered through the mesh.
  std::size_t origin_chunks = 0;   ///< Own chunks that fully drained at the AP.
  double mean_relay_latency_s = 0.0;  ///< Mean end-to-end latency of those.
  double in_flight_bits = 0.0;     ///< Own bits still buffered at relays.
  bool localized = false;          ///< A position estimate exists.
  bool radar_fix = false;          ///< true: AP radar; false: anchor fusion.
  double est_x_m = 0.0;            ///< Estimated plan position.
  double est_y_m = 0.0;
  double pos_error_m = 0.0;        ///< Euclidean error vs the true pose.
};

/// Whole-cell mesh outcome, sealed by CellEngine::finish(). Empty (all
/// zeros, no nodes) when no mesh is installed.
struct MeshReport {
  std::vector<MeshNodeReport> nodes;   ///< In node-index order.
  std::size_t discoveries = 0;         ///< Route builds (first + reroutes).
  std::size_t reroutes = 0;            ///< Rebuilds after churn/blockage.
  std::size_t forwards = 0;            ///< Chunk hop-moves (incl. origin leg).
  std::size_t orphan_sweeps = 0;       ///< (dark node, sweep) pairs with
                                       ///< backlog but no route.
  std::size_t delivered_chunks = 0;    ///< Relayed chunks drained at the AP.
  double relayed_bits = 0.0;           ///< Total bits moved over relay links.
  double dropped_bits = 0.0;           ///< In-flight bits lost to relay churn.
  double peak_relay_queue_bits = 0.0;  ///< Worst single-relay occupancy.
  std::size_t max_hop_count = 0;       ///< Deepest route in the last build.
  std::size_t connected = 0;           ///< Alive nodes with a route (or direct)
                                       ///< at the last discovery.
  std::size_t population = 0;          ///< Alive nodes at the last discovery.
};

}  // namespace milback::mesh
