#include "milback/mesh/mesh_runtime.hpp"

#include <algorithm>
#include <cmath>

#include "milback/ap/localizer.hpp"
#include "milback/core/contract.hpp"
#include "milback/obs/registry.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace milback::mesh {

namespace {

// Route depths are small integers; growth 1.4 from 1 resolves every depth a
// max_ttl <= ~24 flood can produce into its own bucket.
constexpr obs::HistogramSpec kHopSpec{1.0, 1.4, 24};

/// Residual below which a chunk counts as fully drained (guards against
/// float dust from repeated partial takes).
constexpr double kBitsEps = 1e-9;

// Mesh metric handles ("mesh.*"), interned once per process. All kSim:
// pure functions of (scenario, seed), exported byte-identically at any
// MILBACK_SIM_THREADS (ObsThreadInvariance.MeshChurnExportsAre-
// ByteIdentical).
struct MeshObs {
  obs::Counter route_discovery, reroute, relay_forward, orphan_nodes;
  obs::Histogram hop_count;
  std::uint32_t discover_span = 0;
};

const MeshObs& mesh_obs() {
  static const MeshObs instance = [] {
    auto& r = obs::Registry::global();
    MeshObs o;
    o.route_discovery = r.counter("mesh.route_discovery");
    o.reroute = r.counter("mesh.reroute");
    o.relay_forward = r.counter("mesh.relay_forward");
    o.orphan_nodes = r.counter("mesh.orphan_nodes");
    o.hop_count = r.histogram("mesh.hop_count", kHopSpec);
    o.discover_span = r.trace_name("mesh.discover");
    return o;
  }();
  return instance;
}

}  // namespace

MeshRuntime::MeshRuntime(MeshConfig config) : config_(std::move(config)) {
  require_positive(config_.carrier_hz, "mesh carrier_hz");
  require_finite(config_.relay_snr_at_1m_db, "relay_snr_at_1m_db");
  require_finite(config_.relay_min_snr_db, "relay_min_snr_db");
  require_positive(config_.relay_buffer_bits, "relay_buffer_bits");
  require_positive(config_.mean_hop_m, "mean_hop_m");
  MILBACK_REQUIRE(config_.max_ttl >= 1, "MeshRuntime: max_ttl must be >= 1");
  for (const auto& a : config_.anchors) {
    require_finite(a.x_m, "anchor x_m");
    require_finite(a.y_m, "anchor y_m");
  }
  // Intern the names on install: an export lists every registered metric,
  // so an installed mesh shows its zeros even if it never records.
  mesh_obs();
}

std::uint32_t MeshRuntime::discover_trace_id() const noexcept {
  return mesh_obs().discover_span;
}

void MeshRuntime::ensure_sized(std::size_t n) {
  MILBACK_REQUIRE(n >= queues_.size(),
                  "MeshRuntime: node columns never shrink");
  if (n == queues_.size()) return;
  queues_.resize(n);
  staged_bits_.resize(n, 0.0);
  relayed_bits_.resize(n, 0.0);
  origin_bits_.resize(n, 0.0);
  origin_latency_sum_s_.resize(n, 0.0);
  origin_chunks_.resize(n, 0);
  in_flight_bits_.resize(n, 0.0);
}

void MeshRuntime::rebuild(const channel::MultipathConfig& scene,
                          double blockage_loss_db, double ambient_loss_db,
                          std::span<const double> x_m,
                          std::span<const double> y_m,
                          std::span<const std::uint8_t> alive,
                          std::span<const double> rate_bps, double time_s) {
  const std::size_t n = x_m.size();
  MILBACK_REQUIRE(y_m.size() == n && alive.size() == n && rate_bps.size() == n,
                  "MeshRuntime::rebuild: node columns must share one size");
  ensure_sized(n);

  // Roots of the flood: nodes the AP serves directly this sweep.
  std::vector<std::uint8_t> direct(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    direct[i] = (alive[i] != 0 && rate_bps[i] > 0.0) ? 1 : 0;
  }
  neighbors_ = build_neighbor_table(config_, scene, blockage_loss_db,
                                    ambient_loss_db, x_m, y_m, alive, time_s);
  routes_ = build_routes(neighbors_, direct, config_.max_ttl);

  connected_ = 0;
  population_ = 0;
  max_hop_count_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    ++population_;
    const std::uint32_t h = routes_.routes[i].hop_count;
    if (h == 0) continue;
    ++connected_;
    max_hop_count_ = std::max(max_hop_count_, std::size_t(h));
    mesh_obs().hop_count.record(double(h));
  }
  ++discoveries_;
  mesh_obs().route_discovery.add();
  if (built_) {
    ++reroutes_;
    mesh_obs().reroute.add();
  }
  built_ = true;
  dirty_ = false;
}

double MeshRuntime::capacity_left_bits(std::uint32_t dst) const noexcept {
  return config_.relay_buffer_bits - queues_[dst].bits - staged_bits_[dst];
}

void MeshRuntime::push_queue(std::uint32_t dst, const RelayChunk& chunk) {
  MILBACK_REQUIRE(dst < queues_.size(), "MeshRuntime: relay out of range");
  RelayQueue& q = queues_[dst];
  q.chunks.push_back(chunk);
  q.bits += chunk.bits;
  peak_relay_queue_bits_ = std::max(peak_relay_queue_bits_, q.bits);
}

double MeshRuntime::ingest(std::size_t origin, double bits, double arrival_s) {
  MILBACK_REQUIRE(origin < routes_.routes.size(),
                  "MeshRuntime::ingest: origin out of range");
  const Route& route = routes_.routes[origin];
  MILBACK_REQUIRE(route.hop_count >= 2 && route.next_hop != kNoNode,
                  "MeshRuntime::ingest: origin must have a relay route");
  require_non_negative(bits, "ingest bits");
  require_finite(arrival_s, "ingest arrival_s");
  const std::uint32_t dst = route.next_hop;
  const double accepted = std::min(bits, capacity_left_bits(dst));
  if (accepted <= kBitsEps) return 0.0;
  staging_.push_back({dst, {accepted, arrival_s, std::uint32_t(origin)}});
  staged_bits_[dst] += accepted;
  in_flight_bits_[origin] += accepted;
  relayed_bits_total_ += accepted;
  ++forwards_;
  mesh_obs().relay_forward.add();
  return accepted;
}

void MeshRuntime::note_orphans(std::size_t count) {
  orphan_sweeps_ += count;
  if (count > 0) mesh_obs().orphan_nodes.add(count);
}

const std::vector<MeshRuntime::Delivery>& MeshRuntime::flush(
    std::span<const double> rate_bps, std::span<const std::uint8_t> alive,
    double payload_bits, double now_s) {
  MILBACK_REQUIRE(rate_bps.size() >= queues_.size() &&
                      alive.size() >= queues_.size(),
                  "MeshRuntime::flush: node columns too small");
  require_positive(payload_bits, "payload_bits");
  deliveries_.clear();
  for (std::size_t r = 0; r < queues_.size(); ++r) {
    RelayQueue& q = queues_[r];
    if (q.empty()) continue;
    if (!alive[r]) {
      // The relay left with chunks on board; everything buffered is lost.
      while (!q.empty()) {
        const RelayChunk& c = q.chunks[q.head];
        in_flight_bits_[c.origin] -= c.bits;
        dropped_bits_ += c.bits;
        ++q.head;
      }
      q.chunks.clear();
      q.head = 0;
      q.bits = 0.0;
      continue;
    }
    const Route& route = routes_.routes[r];
    if (rate_bps[r] > 0.0) {
      // Direct service: drain toward the AP, one payload per sweep.
      double budget = payload_bits;
      while (budget > kBitsEps && !q.empty()) {
        RelayChunk& c = q.chunks[q.head];
        const double take = std::min(c.bits, budget);
        c.bits -= take;
        q.bits -= take;
        budget -= take;
        relayed_bits_[r] += take;
        relayed_bits_total_ += take;
        in_flight_bits_[c.origin] -= take;
        origin_bits_[c.origin] += take;
        ++forwards_;
        mesh_obs().relay_forward.add();
        const bool completed = c.bits <= kBitsEps;
        deliveries_.push_back({c.origin, take, c.arrival_s, completed});
        if (completed) {
          ++delivered_chunks_;
          ++origin_chunks_[c.origin];
          origin_latency_sum_s_[c.origin] += now_s - c.arrival_s;
          ++q.head;
        }
      }
    } else if (route.hop_count >= 2 && route.next_hop != kNoNode &&
               alive[route.next_hop]) {
      // Dark relay: pass the buffer one hop down the route, staged so a
      // chunk never traverses two hops in one sweep.
      const std::uint32_t dst = route.next_hop;
      double budget = payload_bits;
      while (budget > kBitsEps && !q.empty()) {
        RelayChunk& c = q.chunks[q.head];
        const double take =
            std::min({c.bits, budget, capacity_left_bits(dst)});
        if (take <= kBitsEps) break;
        c.bits -= take;
        q.bits -= take;
        budget -= take;
        staging_.push_back({dst, {take, c.arrival_s, c.origin}});
        staged_bits_[dst] += take;
        relayed_bits_[r] += take;
        relayed_bits_total_ += take;
        ++forwards_;
        mesh_obs().relay_forward.add();
        if (c.bits <= kBitsEps) ++q.head;
      }
    }
    // else: stranded until the next discovery reroutes this relay.
    if (q.head >= q.chunks.size()) {
      q.chunks.clear();
      q.head = 0;
      q.bits = 0.0;  // drop the float dust of repeated partial takes
    } else if (q.head > 64 && q.head * 2 >= q.chunks.size()) {
      q.chunks.erase(q.chunks.begin(),
                     q.chunks.begin() + std::ptrdiff_t(q.head));
      q.head = 0;
    }
  }
  // Splice this sweep's hop moves (ingest legs + relay-relay moves), in the
  // order they were staged — per-destination FIFO is preserved.
  for (const StagedChunk& s : staging_) {
    push_queue(s.dst, s.chunk);
    staged_bits_[s.dst] = 0.0;
  }
  staging_.clear();
  MILBACK_ENSURE(staging_.empty(), "MeshRuntime::flush: staging spliced");
  return deliveries_;
}

std::size_t MeshRuntime::allocated_bytes() const noexcept {
  std::size_t bytes = neighbors_.allocated_bytes() + routes_.allocated_bytes();
  for (const RelayQueue& q : queues_) {
    bytes += q.chunks.capacity() * sizeof(RelayChunk);
  }
  bytes += queues_.capacity() * sizeof(RelayQueue);
  bytes += staging_.capacity() * sizeof(StagedChunk);
  bytes += deliveries_.capacity() * sizeof(Delivery);
  bytes += (staged_bits_.capacity() + relayed_bits_.capacity() +
            origin_bits_.capacity() + origin_latency_sum_s_.capacity() +
            in_flight_bits_.capacity()) *
           sizeof(double);
  bytes += origin_chunks_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

MeshReport MeshRuntime::finalize(const channel::BackscatterChannel& channel,
                                 std::span<const channel::NodePose> poses,
                                 std::span<const std::uint8_t> alive,
                                 std::uint64_t seed) {
  const std::size_t n = poses.size();
  MILBACK_REQUIRE(alive.size() == n,
                  "MeshRuntime::finalize: pose/alive columns must match");
  ensure_sized(n);
  if (routes_.routes.size() < n) routes_.routes.resize(n, Route{});
  if (neighbors_.node_count() != n) {
    // The mesh never discovered (no service sweep ran): empty adjacency.
    neighbors_.offset.assign(n + 1, 0);
    neighbors_.links.clear();
  }

  // Anchors whose index is not a node of this cell are ignored.
  std::vector<MeshAnchor> anchors;
  for (const MeshAnchor& a : config_.anchors) {
    if (a.node < n) anchors.push_back(a);
  }
  const std::vector<AnchorEstimate> fused =
      fuse_anchor_positions(neighbors_, anchors, config_.mean_hop_m);

  MeshReport report;
  report.nodes.resize(n);
  ap::Localizer localizer;
  for (std::size_t i = 0; i < n; ++i) {
    MeshNodeReport& node = report.nodes[i];
    node.node = std::uint32_t(i);
    const Route& route = routes_.routes[i];
    node.hop_count = route.hop_count;
    node.next_hop = route.next_hop;
    node.reachable = route.hop_count > 0;
    node.route_margin_db =
        (route.hop_count >= 2) ? double(route.margin_db) : 0.0;
    node.relayed_bits = relayed_bits_[i];
    node.origin_bits = origin_bits_[i];
    node.origin_chunks = origin_chunks_[i];
    node.mean_relay_latency_s =
        origin_chunks_[i] > 0 ? origin_latency_sum_s_[i] / double(origin_chunks_[i])
                              : 0.0;
    node.in_flight_bits = std::max(in_flight_bits_[i], 0.0);

    if (config_.localize_direct && alive[i] && route.hop_count == 1) {
      // AP-direct nodes get the paper's full radar fix; the stream key
      // makes the draw independent of event order.
      auto rng = Rng::stream(seed, kMeshStreamTag, std::uint64_t(i));
      const ap::LocalizationResult fix =
          localizer.localize(channel, poses[i], rng);
      if (fix.detected) {
        node.localized = true;
        node.radar_fix = true;
        node.est_x_m = fix.range_m * std::cos(deg2rad(fix.angle_deg));
        node.est_y_m = fix.range_m * std::sin(deg2rad(fix.angle_deg));
      }
    }
    if (!node.localized && fused[i].localized) {
      node.localized = true;
      node.est_x_m = fused[i].x_m;
      node.est_y_m = fused[i].y_m;
    }
    if (node.localized) {
      const double true_x_m =
          poses[i].distance_m * std::cos(deg2rad(poses[i].azimuth_deg));
      const double true_y_m =
          poses[i].distance_m * std::sin(deg2rad(poses[i].azimuth_deg));
      node.pos_error_m =
          std::hypot(node.est_x_m - true_x_m, node.est_y_m - true_y_m);
    }
  }

  report.discoveries = discoveries_;
  report.reroutes = reroutes_;
  report.forwards = forwards_;
  report.orphan_sweeps = orphan_sweeps_;
  report.delivered_chunks = delivered_chunks_;
  report.relayed_bits = relayed_bits_total_;
  report.dropped_bits = dropped_bits_;
  report.peak_relay_queue_bits = peak_relay_queue_bits_;
  report.max_hop_count = max_hop_count_;
  report.connected = connected_;
  report.population = population_;
  MILBACK_ENSURE(report.nodes.size() == n,
                 "MeshRuntime::finalize: one node report per node");
  return report;
}

}  // namespace milback::mesh
