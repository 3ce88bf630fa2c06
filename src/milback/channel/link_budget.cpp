#include "milback/channel/link_budget.hpp"

#include <cmath>
#include <sstream>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {

namespace {

// Shared precondition: budgets are only meaningful for a physically
// placed node (positive finite range, finite angles).
void require_valid_pose(const NodePose& pose) {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
}

}  // namespace

double modulation_power_coeff(const rf::RfSwitch& sw) {
  const double a_reflect = std::sqrt(sw.reflection_power(rf::SwitchState::kReflect));
  const double a_absorb = std::sqrt(sw.reflection_power(rf::SwitchState::kAbsorb));
  const double amp = (a_reflect - a_absorb) / 2.0;
  const double coeff = amp * amp;
  MILBACK_ENSURE(coeff >= 0.0 && coeff <= 1.0,
                 "modulation_power_coeff: power fraction in [0, 1]");
  return coeff;
}

DownlinkBudget compute_downlink_budget(const BackscatterChannel& channel,
                                       const NodePose& pose, antenna::FsaPort port,
                                       double f_signal_hz, double f_other_hz,
                                       const rf::EnvelopeDetector& detector,
                                       const rf::RfSwitch& sw, double measurement_bw_hz) {
  require_valid_pose(pose);
  require_positive(f_signal_hz, "f_signal_hz");
  require_positive(f_other_hz, "f_other_hz");
  require_positive(measurement_bw_hz, "measurement_bw_hz");
  DownlinkBudget b;
  const double through_db = lin2db(sw.through_power(rf::SwitchState::kAbsorb));
  const auto paths = channel.node_path_set(pose);
  b.signal_dbm = channel.incident_port_power_dbm(port, f_signal_hz, pose, paths) + through_db;
  // The other OAQFM tone couples into this port through the port's own
  // pattern at that tone's frequency (a sidelobe, since that frequency's
  // beam for this port points elsewhere).
  b.interference_dbm =
      channel.incident_port_power_dbm(port, f_other_hz, pose, paths) + through_db;

  // Ratios are reported in the RF-power domain (the paper measures the SINR
  // of the signal at the micro-controller input, i.e. of the RF power the
  // detector linearly transduces): the detector's output-voltage noise over
  // the measurement bandwidth is referred back to an equivalent RF input
  // power through the responsivity.
  const double sigma_v = std::sqrt(detector.noise_power_v2(measurement_bw_hz));
  const double noise_eq_w = detector.input_power_for_voltage(sigma_v);
  b.detector_noise_dbm = watt2dbm(noise_eq_w);

  const double p_sig = dbm2watt(b.signal_dbm);
  const double p_int = dbm2watt(b.interference_dbm);
  b.sinr_db = lin2db(p_sig / (p_int + noise_eq_w));
  b.snr_db = lin2db(p_sig / noise_eq_w);
  b.sir_db = lin2db(p_sig / std::max(p_int, 1e-300));
  return b;
}

std::vector<BudgetTerm> downlink_budget_terms(const BackscatterChannel& channel,
                                              const NodePose& pose, antenna::FsaPort port,
                                              double f_signal_hz, const rf::RfSwitch& sw) {
  require_valid_pose(pose);
  require_positive(f_signal_hz, "f_signal_hz");
  const auto& cfg = channel.config();
  return {
      {"TX power (dBm)", cfg.tx_power_dbm},
      {"AP horn gain", channel.ap_tx_antenna().config().boresight_gain_dbi},
      {"FSPL (one way)", -fspl_db(pose.distance_m, f_signal_hz)},
      {"FSA port gain", channel.fsa().gain_dbi(port, f_signal_hz, pose.orientation_deg)},
      {"Switch through loss", lin2db(sw.through_power(rf::SwitchState::kAbsorb))},
      {"Implementation loss", -cfg.implementation_loss_one_way_db},
  };
}

UplinkBudget compute_uplink_budget(const BackscatterChannel& channel, const NodePose& pose,
                                   antenna::FsaPort port, double f_hz,
                                   const rf::RfSwitch& sw, double bit_rate_bps) {
  return compute_uplink_budget_at_coeff(channel, pose, port, f_hz,
                                        modulation_power_coeff(sw), bit_rate_bps);
}

UplinkBudget compute_uplink_budget_at_coeff(const BackscatterChannel& channel,
                                            const NodePose& pose, antenna::FsaPort port,
                                            double f_hz, double mod_coeff,
                                            double bit_rate_bps) {
  require_valid_pose(pose);
  require_positive(f_hz, "f_hz");
  MILBACK_REQUIRE(mod_coeff >= 0.0 && mod_coeff <= 1.0,
                  "compute_uplink_budget_at_coeff: mod_coeff must be in [0, 1]");
  require_positive(bit_rate_bps, "bit_rate_bps");
  UplinkBudget b;
  b.rx_signal_dbm = channel.backscatter_power_dbm(port, f_hz, pose, mod_coeff);
  b.noise_bandwidth_hz = bit_rate_bps;
  const double rx_w = dbm2watt(b.rx_signal_dbm);
  const double noise_w = channel.effective_uplink_noise_w(rx_w, b.noise_bandwidth_hz);
  b.noise_dbm = watt2dbm(noise_w);
  b.snr_db = lin2db(rx_w / noise_w);
  return b;
}

std::vector<BudgetTerm> uplink_budget_terms(const BackscatterChannel& channel,
                                            const NodePose& pose, antenna::FsaPort port,
                                            double f_hz, const rf::RfSwitch& sw) {
  require_valid_pose(pose);
  require_positive(f_hz, "f_hz");
  const auto& cfg = channel.config();
  const double mod_coeff = modulation_power_coeff(sw);
  const double fsa_gain = channel.fsa().gain_dbi(port, f_hz, pose.orientation_deg);
  return {
      {"TX power (dBm)", cfg.tx_power_dbm},
      {"AP horn TX gain", channel.ap_tx_antenna().config().boresight_gain_dbi},
      {"FSPL (down)", -fspl_db(pose.distance_m, f_hz)},
      {"FSA gain (in)", fsa_gain},
      {"Modulation coeff", lin2db(mod_coeff)},
      {"FSA gain (out)", fsa_gain},
      {"FSPL (up)", -fspl_db(pose.distance_m, f_hz)},
      {"AP horn RX gain", channel.ap_rx_antenna().config().boresight_gain_dbi},
      {"Implementation loss", -cfg.implementation_loss_two_way_db},
  };
}

RadarBudget compute_radar_budget(const BackscatterChannel& channel, const NodePose& pose,
                                 const rf::RfSwitch& sw, double chirp_duration_s,
                                 double beat_sample_rate_hz) {
  require_valid_pose(pose);
  require_positive(chirp_duration_s, "chirp_duration_s");
  require_positive(beat_sample_rate_hz, "beat_sample_rate_hz");
  RadarBudget b;
  const double f_c = channel.fsa().config().center_frequency_hz;
  // During localization the node toggles the whole reflection on/off; use the
  // modulated component as the detectable signal.
  const double mod_coeff = modulation_power_coeff(sw);
  // The FSA reflects only while the chirp sweeps through its aligned beam;
  // the orientation-dependent gain is captured at the aligned frequency.
  const auto f_aligned = channel.fsa().beam_frequency_hz(antenna::FsaPort::kA,
                                                         pose.orientation_deg);
  const double f_use = f_aligned.value_or(f_c);
  b.rx_signal_dbm =
      channel.backscatter_power_dbm(antenna::FsaPort::kA, f_use, pose, mod_coeff);
  double clutter_w = 0.0;
  for (const auto& c : channel.clutter_returns(f_c, pose)) clutter_w += c.power_w;
  b.clutter_dbm = clutter_w > 0.0 ? watt2dbm(clutter_w) : -300.0;
  // Beat-domain noise in the sampled bandwidth; FFT over the chirp gives
  // a processing gain of (time-bandwidth of the beat capture).
  b.noise_dbm = watt2dbm(channel.ap_noise_floor_w(beat_sample_rate_hz / 2.0));
  b.processing_gain_db = lin2db(std::max(chirp_duration_s * beat_sample_rate_hz / 2.0, 1.0));
  b.snr_db = b.rx_signal_dbm - b.noise_dbm + b.processing_gain_db;
  return b;
}

// milback-analyze: no-contract(pure formatting of already-validated budget terms)
std::string format_terms(const std::vector<BudgetTerm>& terms) {
  std::ostringstream os;
  for (const auto& t : terms) {
    os << "  " << t.label << ": " << t.value_db << " dB\n";
  }
  return os.str();
}

}  // namespace milback::channel
