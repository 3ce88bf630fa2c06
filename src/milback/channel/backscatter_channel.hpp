// End-to-end backscatter channel: AP <-> node geometry, antenna gains,
// path loss, clutter and noise — the single source of truth every higher
// layer (radar pipeline, downlink, uplink, budgets) queries for received
// powers. Every power is answered over the node's traced `PathSet`, one
// query per quantity, so all layers see the same best surviving path.
//
// Geometry convention: the AP sits at the origin with its horns mechanically
// steered toward the node (as in the paper's prototype). The node pose is
// (distance, azimuth in the AP frame, orientation). `orientation_deg` is the
// angle between the node's FSA broadside normal and the AP-node line — the
// quantity MilBack's orientation sensing estimates, and the knob that picks
// the OAQFM carrier pair.
#pragma once

#include <optional>
#include <vector>

#include "milback/antenna/fsa.hpp"
#include "milback/channel/environment.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/channel/propagation.hpp"
#include "milback/rf/horn_antenna.hpp"
#include "milback/rf/rf_switch.hpp"

namespace milback::channel {

/// Where the node is and how it is rotated.
struct NodePose {
  double distance_m = 2.0;       ///< AP-to-node range.
  double azimuth_deg = 0.0;      ///< Node bearing in the AP frame.
  double orientation_deg = 0.0;  ///< FSA normal vs the AP-node line.
};

/// Channel-level calibration constants. The implementation losses lump
/// cable/connector losses, polarization mismatch, mixer conversion loss and
/// modulation loss — calibrated once against the paper's reported operating
/// points (see DESIGN.md section 2) and then held fixed for every experiment.
///
/// This is the one model of the AP's RF hardware: its parts enter only as the
/// link-budget terms below (the 20 dBi horns are the `rf::HornAntenna`s the
/// channel is built with).
struct ChannelConfig {
  /// Power at the AP TX horn port: the VXG + ADPA7005 PA chain's calibrated
  /// output as the paper states it, 27 dBm (47 dBm EIRP with a 20 dBi horn).
  double tx_power_dbm = 27.0;
  double implementation_loss_one_way_db = 15.0;  ///< Downlink lumped loss
                                                 ///< (pointing, polarization,
                                                 ///< port coupling).
  double implementation_loss_two_way_db = 8.0;  ///< Uplink/radar lumped loss;
                                                 ///< smaller than one-way
                                                 ///< because the backscatter
                                                 ///< modulation loss is
                                                 ///< accounted explicitly via
                                                 ///< modulation_power_coeff().
  /// AP receive chain noise figure. The Friis cascade of the ADL8142 LNA
  /// (3.5 dB NF, 20 dB gain), the passive mixer (9 dB conversion loss, NF ~
  /// loss) and the BPF (1 dB insertion loss) is 3.67 dB; a 1.33 dB
  /// implementation margin (LO noise, cabling, scope front end) makes 5.0 dB.
  double rx_noise_figure_db = 5.0;
  double multiplicative_noise_db = -26.0;  ///< Residual self-interference floor
                                           ///< relative to received power (LO
                                           ///< phase-noise skirt); caps uplink
                                           ///< SNR at short range.
  double ap_antenna_baseline_m = 0.035;    ///< RX horn separation for AoA.
  double steering_error_sigma_deg = 1.0;   ///< Mechanical steering residual.
  double chirp_amplitude_drift = 2.5e-4;   ///< Chirp-to-chirp clutter amplitude
                                           ///< drift (limits background
                                           ///< subtraction depth).
  double chirp_phase_drift_rad = 1e-3;     ///< Chirp-to-chirp clutter phase drift
                                           ///< (VXG-class chirp coherence).
  double blockage_loss_db = 0.0;           ///< Extra one-way loss on the DIRECT
                                           ///< AP-node path (a human body at
                                           ///< 28 GHz costs ~20-30 dB); applied
                                           ///< twice on backscatter paths.
                                           ///< Indirect (wall-bounce) paths and
                                           ///< clutter are unaffected, which is
                                           ///< what lets a reflector carry the
                                           ///< link through blockage.
  double ambient_loss_db = 0.0;            ///< Extra one-way loss applied to
                                           ///< EVERY path (co-channel
                                           ///< interference folded as an
                                           ///< SNR penalty); unlike blockage it
                                           ///< cannot be routed around via a
                                           ///< reflector.
};

/// One propagation path the FMCW receiver sees (clutter or node return).
struct ReturnPath {
  double delay_s = 0.0;      ///< Round-trip delay.
  double power_w = 0.0;      ///< Received power at the AP RX port.
  double azimuth_deg = 0.0;  ///< Arrival bearing (for the 2-antenna AoA).
  bool modulated = false;    ///< True for the node's switched reflection.
};

/// The AP <-> node link model.
class BackscatterChannel {
 public:
  /// Assembles a channel from its physical pieces.
  BackscatterChannel(ChannelConfig config, rf::HornAntenna ap_tx, rf::HornAntenna ap_rx,
                     antenna::DualPortFsa fsa, Environment environment);

  /// Convenience: paper-default hardware with the given environment.
  static BackscatterChannel make_default(Environment environment,
                                         ChannelConfig config = {});

  /// --- Propagation queries -----------------------------------------------
  ///
  /// One query per quantity. Each traces the node's `PathSet` (the direct
  /// ray plus one first-order path per surveyed wall, with moving blockers
  /// evaluated at `path_time_s()`) and answers over it, so budgets and
  /// waveform layers see the same path. With no walls or blockers the set
  /// is the bare direct ray and each query is the single-ray formula. The
  /// overloads taking a `PathSet` reuse one traced for `pose` by
  /// `node_path_set`: trace once per pose, then evaluate per frequency.

  /// RF power [dBm] arriving at the given FSA port feed for a tone at
  /// `f_hz` over the best surviving path, including the port's
  /// frequency-dependent beam gain and the one-way implementation loss.
  /// Switch insertion loss is NOT included (the node model owns its
  /// switch). A tone aimed at the other port leaks in through this port's
  /// pattern: query this port at that tone's frequency.
  double incident_port_power_dbm(antenna::FsaPort port, double f_hz,
                                 const NodePose& pose) const;
  double incident_port_power_dbm(antenna::FsaPort port, double f_hz,
                                 const NodePose& pose, const PathSet& paths) const;

  /// Backscattered power [dBm] at one AP RX antenna when `port` reflects
  /// with power coefficient `reflect_power_coeff` at frequency `f_hz`, over
  /// the best surviving round-trip path pair.
  double backscatter_power_dbm(antenna::FsaPort port, double f_hz, const NodePose& pose,
                               double reflect_power_coeff) const;
  double backscatter_power_dbm(antenna::FsaPort port, double f_hz, const NodePose& pose,
                               const PathSet& paths, double reflect_power_coeff) const;

  /// Return paths of every clutter reflector (AP horns steered at the node,
  /// so clutter off the node bearing is attenuated by the horn pattern).
  std::vector<ReturnPath> clutter_returns(double f_hz, const NodePose& pose) const;

  /// Every modulated return the FMCW receiver sees. Entry 0 is the direct
  /// node return (blocker severing applied), then the clutter-bounce
  /// ghosts (AP -> reflector -> node -> AP and the reciprocal; they carry
  /// the node's switching and so survive background subtraction), then per
  /// wall the hybrid direct+bounce pair and the double-bounce echo. Entries
  /// more than 40 dB below the strongest are dropped; entry 0 never is.
  /// `steer_azimuth_deg` is where the horns point (default: the node); a
  /// reflector-aware localizer re-steers at a wall bearing, so the direct
  /// return and the clutter ghosts pay the off-steer pattern penalty while
  /// wall echoes near the steer bearing get full horn gain.
  std::vector<ReturnPath> modulated_returns(
      antenna::FsaPort port, double f_hz, const NodePose& pose, double reflect_power_coeff,
      std::optional<double> steer_azimuth_deg = std::nullopt) const;
  std::vector<ReturnPath> modulated_returns(
      antenna::FsaPort port, double f_hz, const NodePose& pose, const PathSet& paths,
      double reflect_power_coeff,
      std::optional<double> steer_azimuth_deg = std::nullopt) const;

  /// How much stronger [dB] the double-bounce echo on `indirect` is than the
  /// node-steered (blocked) direct return when the AP re-steers its horns at
  /// `horn_steer_azimuth_deg`; positive means the echo dominates and a
  /// reflector-aware localizer should fire a steered burst and range on it.
  double indirect_return_advantage_db(antenna::FsaPort port, double f_hz,
                                      const NodePose& pose, const PropPath& indirect,
                                      double direct_blocker_loss_db,
                                      double horn_steer_azimuth_deg) const;

  /// Traces the current path set to the node (records path-census obs).
  PathSet node_path_set(const NodePose& pose) const;

  /// --- Scene ---------------------------------------------------------------

  /// Installs the scene geometry (walls + moving blockers).
  void set_multipath(MultipathConfig multipath);
  const MultipathConfig& multipath() const noexcept { return multipath_; }

  /// Sim time at which moving blockers are evaluated for subsequent path
  /// queries. Set serially (e.g. by the cell engine before fanning a service
  /// sweep out to workers) so traced path sets stay thread-invariant.
  void set_path_time_s(double time_s);
  double path_time_s() const noexcept { return path_time_s_; }

  /// --- Noise ---------------------------------------------------------------

  /// AP thermal noise floor [W] in `bandwidth_hz` including the RX noise figure.
  double ap_noise_floor_w(double bandwidth_hz) const noexcept;

  /// Effective uplink noise [W]: thermal floor plus the multiplicative
  /// residual-self-interference term proportional to `rx_power_w`.
  double effective_uplink_noise_w(double rx_power_w, double bandwidth_hz) const noexcept;

  /// --- Accessors -----------------------------------------------------------

  const ChannelConfig& config() const noexcept { return config_; }
  /// Mutable config access (e.g. to inject blockage mid-scenario).
  ChannelConfig& config() noexcept { return config_; }
  const antenna::DualPortFsa& fsa() const noexcept { return fsa_; }
  const rf::HornAntenna& ap_tx_antenna() const noexcept { return ap_tx_; }
  const rf::HornAntenna& ap_rx_antenna() const noexcept { return ap_rx_; }
  const Environment& environment() const noexcept { return environment_; }
  Environment& environment() noexcept { return environment_; }

 private:
  ChannelConfig config_;
  rf::HornAntenna ap_tx_;
  rf::HornAntenna ap_rx_;
  antenna::DualPortFsa fsa_;
  Environment environment_;
  MultipathConfig multipath_;
  double path_time_s_ = 0.0;
};

}  // namespace milback::channel
