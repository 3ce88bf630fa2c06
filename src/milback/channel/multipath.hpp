// Deterministic first-order specular multipath: the PathSet every layer
// queries instead of assuming a single line-of-sight ray.
//
// Geometry convention matches `BackscatterChannel`: the AP sits at the
// origin of the deployment plane and a node at pose (d, az) is the point
// (d cos az, d sin az). Walls are finite segments in that frame; each wall
// contributes at most one first-order image path (AP -> specular point ->
// node) found by reflecting the node across the wall line and intersecting
// the straight ray to the image with the physical segment. Moving blockers
// are discs translating at constant velocity; a path whose polyline passes
// through a disc at the queried sim time picks up the blocker's penetration
// loss (effectively severing it at mmWave losses of tens of dB).
//
// Everything here is a pure function of (config, node position, time):
// no hidden state, no RNG draws, so path sets are bit-identical across
// thread counts and replay. The only stochastic entry point is the
// `office_walls` factory, which derives every draw from
// `Rng::stream(seed, kMultipathStreamTag, wall_index)`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace milback::channel {

/// A finite wall / reflector segment on the deployment plane (AP frame,
/// meters). Walls act as first-order specular mirrors; they do not occlude
/// (occlusion is modeled by blockers and blockage episodes).
struct WallSegment {
  double x1_m = 0.0;  ///< First endpoint.
  double y1_m = 0.0;
  double x2_m = 0.0;  ///< Second endpoint.
  double y2_m = 0.0;
  double reflection_loss_db = 10.0;  ///< Specular bounce loss (~10 dB @ 28 GHz).
};

/// A disc-shaped obstacle translating at constant velocity. Any path whose
/// polyline intersects the disc at the queried sim time takes
/// `penetration_loss_db` per crossing leg (a human torso at 28 GHz costs
/// 20-40 dB, i.e. the path is effectively severed).
struct MovingBlocker {
  double x_m = 0.0;    ///< Center at t = 0.
  double y_m = 0.0;
  double vx_mps = 0.0;  ///< Velocity (m/s) in the AP frame.
  double vy_mps = 0.0;
  double radius_m = 0.3;
  double penetration_loss_db = 30.0;  ///< One-way loss per blocked leg.
};

/// Scene description for the ray layer. With no walls and no blockers (the
/// default) `trace_paths` returns the lone unblocked direct ray, and every
/// channel query over it is the line-of-sight formula: no query branches on
/// the scene being empty.
struct MultipathConfig {
  std::vector<WallSegment> walls;
  std::vector<MovingBlocker> blockers;

  /// Deterministic randomized office scene: `n_walls` perimeter reflectors
  /// placed 4-10 m out with jittered orientation and per-wall reflection
  /// loss in [8, 14] dB. Every draw comes from
  /// `Rng::stream(seed, kMultipathStreamTag, wall)`, so wall k is identical
  /// regardless of how many walls are requested or in which order scenes
  /// are built.
  static MultipathConfig office_walls(std::uint64_t seed, std::size_t n_walls = 4);
};

/// Stream-id tag separating multipath geometry draws from every other
/// consumer of `Rng::stream(seed, ...)`.
inline constexpr std::uint64_t kMultipathStreamTag = 0x6d70617468ULL;  // "mpath"

/// One one-way AP <-> node propagation route.
struct PropPath {
  double length_m = 0.0;   ///< Total geometric length.
  double aoa_deg = 0.0;    ///< Departure/arrival bearing at the AP (AP frame).
  double aod_deg = 0.0;    ///< Bearing (AP frame) from the node toward its
                           ///< first scatterer (the AP itself when direct).
  double bounce_loss_db = 0.0;   ///< Accumulated specular reflection loss.
  double blocker_loss_db = 0.0;  ///< Accumulated penetration loss at the
                                 ///< queried sim time (0 = unobstructed).
  int bounces = 0;               ///< 0 = direct, 1 = one wall bounce.
  int wall = -1;                 ///< Reflecting wall index (-1 when direct).
  double hit_x_m = 0.0;          ///< Specular point on the wall (bounces == 1).
  double hit_y_m = 0.0;

  /// A path carrying any penetration loss counts as severed for
  /// availability accounting (the loss values make it undetectable).
  bool severed() const noexcept { return blocker_loss_db > 0.0; }
};

/// The ordered set of propagation paths between the AP and one node.
/// `paths[0]` is always the direct ray; indirect paths follow in wall-index
/// order, so the set is deterministic for a given (config, position, time).
struct PathSet {
  std::vector<PropPath> paths;

  /// The direct (0-bounce) path.
  const PropPath& direct() const;
  /// Number of paths not currently severed by a blocker.
  std::size_t active_count() const noexcept;
  /// Number of paths currently severed by a blocker.
  std::size_t severed_count() const noexcept;
};

/// Traces the first-order path set from the AP (origin) to the node at
/// (node_x_m, node_y_m), evaluating moving blockers at sim time `time_s`.
/// Walls whose specular point falls off the physical segment contribute no
/// path. The direct path is always present (possibly severed).
PathSet trace_paths(const MultipathConfig& config, double node_x_m,
                    double node_y_m, double time_s);

/// Mirror-image position correction for NLoS ranging (the N2LoS fallback):
/// given the measured one-way path length of a double-bounce echo and its
/// arrival bearing at the AP, unfolds the specular reflection at `wall` to
/// recover the node position. Walks the ray from the origin along
/// `aoa_deg`, reflects at the wall and continues for the remaining length.
/// Returns false (outputs untouched) when the ray misses the physical
/// segment or the wall is farther than `path_length_m`.
bool nlos_unfold(const WallSegment& wall, double path_length_m, double aoa_deg,
                 double* node_x_m, double* node_y_m);

}  // namespace milback::channel
