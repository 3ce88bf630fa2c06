#include "milback/channel/backscatter_channel.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/obs/registry.hpp"
#include "milback/rf/noise.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {

namespace {

// Path-census telemetry: how many propagation paths survive vs get severed
// by blockers across all PathSet queries. Counter adds are commutative, so
// the totals are thread-count invariant.
struct ChannelObs {
  obs::Counter paths_active, blockage_sever;
};

const ChannelObs& channel_obs() {
  static const ChannelObs instance = [] {
    auto& r = obs::Registry::global();
    ChannelObs o;
    o.paths_active = r.counter("channel.paths_active");
    o.blockage_sever = r.counter("channel.blockage_sever");
    return o;
  }();
  return instance;
}

// Hybrid (one direct + one bounced leg) pairs coincide in delay; the two
// orderings add as a +3 dB pair, same convention as the clutter ghosts.
constexpr double kHybridPairGainDb = 3.0;
// Echoes more than this far below the strongest modulated return are
// dropped.
constexpr double kEchoFloorDb = 40.0;
// Specular loss of one clutter-reflector bounce (~10 dB at 28 GHz).
constexpr double kGhostBounceLossDb = 10.0;

// Single-ray budgets of the direct path: the base every path-set query
// adjusts by its best path's delta. The AP horn is steered at the node
// (zero offset on the AP side); the node's FSA sees the AP at
// `orientation_deg` off its broadside.
double direct_incident_dbm(const BackscatterChannel& ch, antenna::FsaPort port,
                           double f_hz, const NodePose& pose) {
  const auto& cfg = ch.config();
  const double node_gain = ch.fsa().gain_dbi(port, f_hz, pose.orientation_deg);
  return friis_dbm(cfg.tx_power_dbm, ch.ap_tx_antenna().config().boresight_gain_dbi,
                   node_gain, pose.distance_m, f_hz) -
         cfg.implementation_loss_one_way_db - cfg.blockage_loss_db - cfg.ambient_loss_db;
}

double direct_backscatter_dbm(const BackscatterChannel& ch, antenna::FsaPort port,
                              double f_hz, const NodePose& pose,
                              double reflect_power_coeff) {
  const auto& cfg = ch.config();
  const double node_gain = ch.fsa().gain_dbi(port, f_hz, pose.orientation_deg);
  return backscatter_dbm(cfg.tx_power_dbm, ch.ap_tx_antenna().config().boresight_gain_dbi,
                         ch.ap_rx_antenna().config().boresight_gain_dbi, node_gain,
                         node_gain, reflect_power_coeff, pose.distance_m, f_hz) -
         cfg.implementation_loss_two_way_db - 2.0 * cfg.blockage_loss_db -
         2.0 * cfg.ambient_loss_db;
}

// One-way gain/loss of an indirect path relative to the ideal unblocked
// direct leg (FSPL spread, horn and FSA pattern deltas, bounce and blocker
// losses). `gain_port` selects which FSA port's pattern applies.
// `swept_fsa` credits the FMCW sweep with illuminating the bounce angle at
// its own aligned frequency; `horn_steer_deg` is the bearing the AP horns
// point at (the node for an ordinary burst, `path.aoa_deg` when the AP
// re-steers at the wall).
double one_way_path_delta_db(const BackscatterChannel& ch, antenna::FsaPort gain_port,
                             double f_hz, const NodePose& pose, const PropPath& path,
                             bool swept_fsa, double horn_steer_deg) {
  require_positive(f_hz, "f_hz");
  require_finite(horn_steer_deg, "horn_steer_deg");
  MILBACK_REQUIRE(path.bounces > 0, "one_way_path_delta_db: indirect path expected");
  const auto& horn = ch.ap_tx_antenna();
  const auto& fsa = ch.fsa();
  const double spread_db = fspl_db(path.length_m, f_hz) - fspl_db(pose.distance_m, f_hz);
  // Horn pattern penalty on the bounce bearing relative to wherever the AP
  // horns point: a burst steered at the node pays the off-steer loss on the
  // wall bearing; a reflector-aware AP re-steering at the wall
  // (`horn_steer_deg == path.aoa_deg`) recovers full gain there.
  const double horn_delta_db =
      horn.gain_dbi(path.aoa_deg - horn_steer_deg) - horn.config().boresight_gain_dbi;
  // FSA pattern at the bounce arrival angle relative to the node boresight
  // (same construction the clutter ghosts use).
  const double nx = pose.distance_m * std::cos(deg2rad(pose.azimuth_deg));
  const double ny = pose.distance_m * std::sin(deg2rad(pose.azimuth_deg));
  const double boresight = std::atan2(-ny, -nx) + deg2rad(pose.orientation_deg);
  const double node_angle_deg =
      rad2deg(wrap_radians(deg2rad(path.aod_deg) - boresight));
  // Swept (FMCW) queries: the chirp crosses the bounce angle's own aligned
  // frequency, so the frequency-scanned FSA illuminates the indirect path
  // at close to full gain at some point in the sweep. Fixed-tone (comms)
  // queries see the pattern at the tone frequency only.
  double bounce_gain_dbi;
  if (swept_fsa) {
    const auto f_own = fsa.beam_frequency_hz(gain_port, node_angle_deg);
    bounce_gain_dbi = f_own ? fsa.gain_dbi(gain_port, *f_own, node_angle_deg)
                            : fsa.gain_dbi(gain_port, f_hz, node_angle_deg);
  } else {
    bounce_gain_dbi = fsa.gain_dbi(gain_port, f_hz, node_angle_deg);
  }
  const double fsa_delta_db =
      bounce_gain_dbi - fsa.gain_dbi(gain_port, f_hz, pose.orientation_deg);
  return -spread_db + horn_delta_db + fsa_delta_db - path.bounce_loss_db -
         path.blocker_loss_db;
}

// Best one-way adjustment [dB] of the direct-ray budget over the surviving
// paths (exactly -0.0 for a lone unblocked direct ray).
double best_one_way_delta_db(const BackscatterChannel& ch, antenna::FsaPort gain_port,
                             double f_hz, const NodePose& pose, const PathSet& paths) {
  const double blockage_db = ch.config().blockage_loss_db;
  double best = -paths.direct().blocker_loss_db;
  for (const auto& p : paths.paths) {
    if (p.bounces == 0) continue;
    // Indirect paths skip the direct-path blockage term baked into the
    // direct-ray budget, hence the +blockage compensation.
    best = std::max(best, blockage_db + one_way_path_delta_db(ch, gain_port, f_hz, pose, p,
                                                              /*swept_fsa=*/false,
                                                              /*horn_steer_deg=*/p.aoa_deg));
  }
  return best;
}

// Best round-trip adjustment [dB] over surviving path pairs.
double best_two_way_delta_db(const BackscatterChannel& ch, antenna::FsaPort port,
                             double f_hz, const NodePose& pose, const PathSet& paths) {
  const double blockage_db = ch.config().blockage_loss_db;
  const double direct_blocker_db = paths.direct().blocker_loss_db;
  double best = -2.0 * direct_blocker_db;
  for (const auto& p : paths.paths) {
    if (p.bounces == 0) continue;
    const double delta_db = one_way_path_delta_db(ch, port, f_hz, pose, p,
                                                  /*swept_fsa=*/false,
                                                  /*horn_steer_deg=*/p.aoa_deg);
    // Hybrid pair: one leg direct (keeps blockage and blockers), one bounced.
    best = std::max(best, blockage_db - direct_blocker_db + delta_db + kHybridPairGainDb);
    // Double bounce: both legs route around the blockage entirely.
    best = std::max(best, 2.0 * (blockage_db + delta_db));
  }
  return best;
}

// Ghosts of the node's return off the clutter reflectors: one direct leg
// plus one leg bounced AP -> reflector -> node (the two orderings coincide
// in delay; +3 dB for the pair). The FSA sees the bounce at the tone
// frequency. Ghosts more than 40 dB below `direct_dbm` are dropped.
void append_clutter_ghosts(const BackscatterChannel& ch, antenna::FsaPort port, double f_hz,
                           const NodePose& pose, double direct_dbm,
                           std::vector<ReturnPath>& out) {
  const auto& horn = ch.ap_tx_antenna();
  const auto& fsa = ch.fsa();
  // Cartesian geometry: AP at origin, node and reflectors in the plane.
  const double nx = pose.distance_m * std::cos(deg2rad(pose.azimuth_deg));
  const double ny = pose.distance_m * std::sin(deg2rad(pose.azimuth_deg));
  // Node boresight direction: toward the AP rotated by the orientation.
  const double to_ap = std::atan2(-ny, -nx);
  const double boresight = to_ap + deg2rad(pose.orientation_deg);

  for (const auto& c : ch.environment().clutter()) {
    const double wx = c.range_m * std::cos(deg2rad(c.azimuth_deg));
    const double wy = c.range_m * std::sin(deg2rad(c.azimuth_deg));
    const double d_aw = std::hypot(wx, wy);
    const double d_wn = std::hypot(nx - wx, ny - wy);
    if (d_wn < 0.05) continue;  // reflector colocated with the node

    // Bounced leg: arrival angle at the node relative to its boresight sets
    // the FSA gain for that leg.
    const double arrival = std::atan2(wy - ny, wx - nx);
    const double node_angle_deg = rad2deg(wrap_radians(arrival - boresight));
    const double g_node_ghost = fsa.gain_dbi(port, f_hz, node_angle_deg);
    const double g_node_direct = fsa.gain_dbi(port, f_hz, pose.orientation_deg);

    // AP-side pattern toward the reflector (horns steered at the node).
    const double g_horn_ghost = horn.gain_dbi(c.azimuth_deg - pose.azimuth_deg);
    const double g_horn_direct = horn.config().boresight_gain_dbi;

    const double extra_spread_db =
        20.0 * std::log10(std::max((d_aw + d_wn) / pose.distance_m, 1.0));
    const double ghost_dbm = direct_dbm - kGhostBounceLossDb - extra_spread_db +
                             (g_node_ghost - g_node_direct) +
                             (g_horn_ghost - g_horn_direct) + kHybridPairGainDb;
    if (ghost_dbm < direct_dbm - kEchoFloorDb) continue;

    ReturnPath r;
    r.delay_s = (pose.distance_m + d_aw + d_wn) / kSpeedOfLight;
    r.power_w = dbm2watt(ghost_dbm);
    r.azimuth_deg = 0.5 * (pose.azimuth_deg + c.azimuth_deg);  // smeared AoA
    r.modulated = true;
    out.push_back(r);
  }
}

}  // namespace

BackscatterChannel::BackscatterChannel(ChannelConfig config, rf::HornAntenna ap_tx,
                                       rf::HornAntenna ap_rx, antenna::DualPortFsa fsa,
                                       Environment environment)
    : config_(config),
      ap_tx_(ap_tx),
      ap_rx_(ap_rx),
      fsa_(std::move(fsa)),
      environment_(std::move(environment)) {
  require_finite(config_.tx_power_dbm, "tx_power_dbm");
  require_non_negative(config_.rx_noise_figure_db, "rx_noise_figure_db");
  require_non_negative(config_.implementation_loss_one_way_db,
                       "implementation_loss_one_way_db");
  require_non_negative(config_.implementation_loss_two_way_db,
                       "implementation_loss_two_way_db");
  require_non_negative(config_.blockage_loss_db, "blockage_loss_db");
  require_non_negative(config_.ambient_loss_db, "ambient_loss_db");
  require_positive(config_.ap_antenna_baseline_m, "ap_antenna_baseline_m");
  require_non_negative(config_.steering_error_sigma_deg, "steering_error_sigma_deg");
}

BackscatterChannel BackscatterChannel::make_default(Environment environment,
                                                    ChannelConfig config) {
  return BackscatterChannel(config, rf::HornAntenna(rf::HornAntennaConfig{}),
                            rf::HornAntenna(rf::HornAntennaConfig{}),
                            antenna::DualPortFsa(antenna::FsaConfig{}),
                            std::move(environment));
}

double BackscatterChannel::incident_port_power_dbm(antenna::FsaPort port, double f_hz,
                                                   const NodePose& pose) const {
  return incident_port_power_dbm(port, f_hz, pose, node_path_set(pose));
}

double BackscatterChannel::incident_port_power_dbm(antenna::FsaPort port, double f_hz,
                                                   const NodePose& pose,
                                                   const PathSet& paths) const {
  require_positive(f_hz, "f_hz");
  return direct_incident_dbm(*this, port, f_hz, pose) +
         best_one_way_delta_db(*this, port, f_hz, pose, paths);
}

double BackscatterChannel::backscatter_power_dbm(antenna::FsaPort port, double f_hz,
                                                 const NodePose& pose,
                                                 double reflect_power_coeff) const {
  return backscatter_power_dbm(port, f_hz, pose, node_path_set(pose), reflect_power_coeff);
}

double BackscatterChannel::backscatter_power_dbm(antenna::FsaPort port, double f_hz,
                                                 const NodePose& pose, const PathSet& paths,
                                                 double reflect_power_coeff) const {
  require_positive(f_hz, "f_hz");
  require_non_negative(reflect_power_coeff, "reflect_power_coeff");
  return direct_backscatter_dbm(*this, port, f_hz, pose, reflect_power_coeff) +
         best_two_way_delta_db(*this, port, f_hz, pose, paths);
}

std::vector<ReturnPath> BackscatterChannel::clutter_returns(double f_hz,
                                                            const NodePose& pose) const {
  require_positive(f_hz, "f_hz");
  std::vector<ReturnPath> out;
  out.reserve(environment_.size());
  for (const auto& c : environment_.clutter()) {
    const double offset = c.azimuth_deg - pose.azimuth_deg;  // horns point at node
    const double gain_tx = ap_tx_.gain_dbi(offset);
    const double gain_rx = ap_rx_.gain_dbi(offset);
    ReturnPath r;
    r.delay_s = round_trip_delay_s(c.range_m);
    r.power_w = dbm2watt(radar_return_dbm(config_.tx_power_dbm, gain_tx, gain_rx, c.rcs_m2,
                                          c.range_m, f_hz) -
                         config_.implementation_loss_two_way_db);
    r.azimuth_deg = c.azimuth_deg;
    r.modulated = false;
    out.push_back(r);
  }
  return out;
}

void BackscatterChannel::set_multipath(MultipathConfig multipath) {
  for (const auto& w : multipath.walls) {
    require_finite(w.x1_m, "wall.x1_m");
    require_finite(w.y1_m, "wall.y1_m");
    require_finite(w.x2_m, "wall.x2_m");
    require_finite(w.y2_m, "wall.y2_m");
    require_non_negative(w.reflection_loss_db, "wall.reflection_loss_db");
    MILBACK_REQUIRE(std::hypot(w.x2_m - w.x1_m, w.y2_m - w.y1_m) > 0.0,
                    "set_multipath: wall endpoints must be distinct");
  }
  for (const auto& b : multipath.blockers) {
    require_finite(b.x_m, "blocker.x_m");
    require_finite(b.y_m, "blocker.y_m");
    require_finite(b.vx_mps, "blocker.vx_mps");
    require_finite(b.vy_mps, "blocker.vy_mps");
    require_positive(b.radius_m, "blocker.radius_m");
    require_non_negative(b.penetration_loss_db, "blocker.penetration_loss_db");
  }
  multipath_ = std::move(multipath);
}

void BackscatterChannel::set_path_time_s(double time_s) {
  require_finite(time_s, "path time_s");
  path_time_s_ = time_s;
}

PathSet BackscatterChannel::node_path_set(const NodePose& pose) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  const double nx = pose.distance_m * std::cos(deg2rad(pose.azimuth_deg));
  const double ny = pose.distance_m * std::sin(deg2rad(pose.azimuth_deg));
  PathSet set = trace_paths(multipath_, nx, ny, path_time_s_);
  channel_obs().paths_active.add(set.active_count());
  channel_obs().blockage_sever.add(set.severed_count());
  return set;
}

double BackscatterChannel::indirect_return_advantage_db(
    antenna::FsaPort port, double f_hz, const NodePose& pose,
    const PropPath& indirect, double direct_blocker_loss_db,
    double horn_steer_azimuth_deg) const {
  require_non_negative(direct_blocker_loss_db, "direct_blocker_loss_db");
  // double-bounce echo minus the node-steered (blocked) direct return:
  //   (base + 2*blockage + 2*delta) - (base - 2*direct_blocker).
  // Swept FSA; the horn term inside delta reflects wherever the AP points
  // the burst (the wall bearing for a reflector-aware second pass).
  return 2.0 * (config_.blockage_loss_db +
                one_way_path_delta_db(*this, port, f_hz, pose, indirect,
                                      /*swept_fsa=*/true, horn_steer_azimuth_deg) +
                direct_blocker_loss_db);
}

std::vector<ReturnPath> BackscatterChannel::modulated_returns(
    antenna::FsaPort port, double f_hz, const NodePose& pose, double reflect_power_coeff,
    std::optional<double> steer_azimuth_deg) const {
  return modulated_returns(port, f_hz, pose, node_path_set(pose), reflect_power_coeff,
                           steer_azimuth_deg);
}

std::vector<ReturnPath> BackscatterChannel::modulated_returns(
    antenna::FsaPort port, double f_hz, const NodePose& pose, const PathSet& paths,
    double reflect_power_coeff, std::optional<double> steer_azimuth_deg) const {
  require_positive(f_hz, "f_hz");
  require_non_negative(reflect_power_coeff, "reflect_power_coeff");
  const double steer_deg = steer_azimuth_deg.value_or(pose.azimuth_deg);
  require_finite(steer_deg, "steer_azimuth_deg");
  const double base_dbm = direct_backscatter_dbm(*this, port, f_hz, pose, reflect_power_coeff);
  // Entry 0: the node's own reflection on the direct ray.
  std::vector<ReturnPath> out{{round_trip_delay_s(pose.distance_m), dbm2watt(base_dbm),
                               pose.azimuth_deg, /*modulated=*/true}};
  append_clutter_ghosts(*this, port, f_hz, pose, base_dbm, out);

  // Off-steer penalty of the node bearing itself: exactly 0.0 when the burst
  // is steered at the node (gain(0) is the boresight value).
  const double boresight_dbi = ap_tx_.config().boresight_gain_dbi;
  const double node_off_steer_db = boresight_dbi - ap_tx_.gain_dbi(pose.azimuth_deg - steer_deg);

  const double direct_blocker_db = paths.direct().blocker_loss_db;
  const double direct_extra_db = 2.0 * (direct_blocker_db + node_off_steer_db);
  if (direct_extra_db != 0.0) {
    out.front().power_w *= db2lin(-direct_extra_db);
  }
  if (node_off_steer_db != 0.0) {
    // Clutter ghosts have one leg toward the node: a steered burst pays the
    // node off-steer penalty on that leg (the other leg keeps its own
    // pattern offset, a conservative approximation).
    for (std::size_t i = 1; i < out.size(); ++i) {
      out[i].power_w *= db2lin(-node_off_steer_db);
    }
  }

  for (const auto& p : paths.paths) {
    if (p.bounces == 0) continue;
    const double delta_db = one_way_path_delta_db(*this, port, f_hz, pose, p,
                                                  /*swept_fsa=*/true,
                                                  /*horn_steer_deg=*/steer_deg);

    ReturnPath hybrid;
    hybrid.delay_s = (pose.distance_m + p.length_m) / kSpeedOfLight;
    hybrid.power_w = dbm2watt(base_dbm + config_.blockage_loss_db - direct_blocker_db -
                              node_off_steer_db + delta_db + kHybridPairGainDb);
    hybrid.azimuth_deg = 0.5 * (pose.azimuth_deg + p.aoa_deg);  // smeared AoA
    hybrid.modulated = true;
    out.push_back(hybrid);

    ReturnPath echo;
    echo.delay_s = 2.0 * p.length_m / kSpeedOfLight;
    echo.power_w =
        dbm2watt(base_dbm + 2.0 * (config_.blockage_loss_db + delta_db));
    echo.azimuth_deg = p.aoa_deg;  // arrives from the wall: the NLoS bearing
    echo.modulated = true;
    out.push_back(echo);
  }

  double strongest_w = 0.0;
  for (const auto& r : out) strongest_w = std::max(strongest_w, r.power_w);
  const double floor_w = strongest_w * db2lin(-kEchoFloorDb);
  std::vector<ReturnPath> kept;
  kept.reserve(out.size());
  // Entry 0 stays the direct return even when severed below the floor —
  // consumers index the node path at the front of the list.
  kept.push_back(out.front());
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].power_w >= floor_w) kept.push_back(out[i]);
  }
  MILBACK_ENSURE(!kept.empty(), "modulated_returns: direct return kept");
  return kept;
}

double BackscatterChannel::ap_noise_floor_w(double bandwidth_hz) const noexcept {
  return rf::noise_floor_w(bandwidth_hz, config_.rx_noise_figure_db);
}

double BackscatterChannel::effective_uplink_noise_w(double rx_power_w,
                                                    double bandwidth_hz) const noexcept {
  const double mult = rx_power_w * db2lin(config_.multiplicative_noise_db);
  return ap_noise_floor_w(bandwidth_hz) + mult;
}

}  // namespace milback::channel
