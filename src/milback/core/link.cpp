#include "milback/core/link.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/ber.hpp"
#include "milback/core/contract.hpp"
#include "milback/core/energy.hpp"
#include "milback/util/units.hpp"

namespace milback::core {

namespace {

using antenna::FsaPort;

std::size_t count_bit_errors(const std::vector<bool>& tx, const std::vector<bool>& rx) {
  const std::size_t common = std::min(tx.size(), rx.size());
  std::size_t errors = std::max(tx.size(), rx.size()) - common;
  for (std::size_t i = 0; i < common; ++i) errors += std::size_t(tx[i] != rx[i]);
  return errors;
}

}  // namespace

MilBackLink::MilBackLink(channel::BackscatterChannel channel, LinkConfig config)
    : channel_(std::move(channel)), config_(config), ap_(config.ap), node_(config.node) {
  require_positive(config_.downlink_bit_rate_bps, "downlink_bit_rate_bps");
  require_positive(config_.uplink_bit_rate_bps, "uplink_bit_rate_bps");
  require_positive(config_.node_sim_rate_hz, "node_sim_rate_hz");
  require_positive(config_.downlink_measurement_bw_hz, "downlink_measurement_bw_hz");
}

ap::LocalizationResult MilBackLink::localize(const channel::NodePose& pose,
                                             milback::Rng& rng) const {
  return ap_.localize(channel_, pose, rng);
}

ap::ApOrientationResult MilBackLink::sense_orientation_at_ap(const channel::NodePose& pose,
                                                             milback::Rng& rng) const {
  return ap_.sense_orientation(channel_, pose, rng);
}

std::vector<double> MilBackLink::field1_port_power(const channel::NodePose& pose,
                                                   FsaPort port,
                                                   LinkDirection direction) const {
  const auto& pre = config_.packet.preamble;
  const auto starts = field1_chirp_starts(pre, direction);
  const double chirp_T = pre.field1.duration_s;
  const double total_s = starts.empty() ? 0.0 : starts.back() + chirp_T;
  const double fs = config_.node_sim_rate_hz;
  const auto n = std::size_t(total_s * fs);

  const double through = node_.rf_switch(port).through_power(rf::SwitchState::kAbsorb);
  const auto paths = channel_.node_path_set(pose);
  std::vector<double> power(n, 0.0);
  for (const double start : starts) {
    const auto i0 = std::size_t(start * fs);
    const auto i1 = std::min(n, std::size_t((start + chirp_T) * fs));
    for (std::size_t i = i0; i < i1; ++i) {
      const double t = double(i) / fs - start;
      const double f = pre.field1.frequency_at(t);
      power[i] =
          dbm2watt(channel_.incident_port_power_dbm(port, f, pose, paths)) * through;
    }
  }
  return power;
}

std::vector<double> MilBackLink::node_field1_trace(const channel::NodePose& pose,
                                                   FsaPort port, LinkDirection direction,
                                                   milback::Rng& rng) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const auto power = field1_port_power(pose, port, direction);
  const auto volts =
      node_.detector(port).detect(power, config_.node_sim_rate_hz, rng);
  return node_.mcu().sample(volts, config_.node_sim_rate_hz);
}

std::optional<node::NodeOrientationEstimate> MilBackLink::sense_orientation_at_node(
    const channel::NodePose& pose, milback::Rng& rng) const {
  // One triangular chirp per port (the node integrates over Field 1; one
  // chirp is the atomic measurement).
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const auto& chirp = config_.packet.preamble.field1;
  const double fs = config_.node_sim_rate_hz;
  const auto n = std::size_t(chirp.duration_s * fs);

  const auto paths = channel_.node_path_set(pose);
  const auto port_trace = [&](FsaPort port) {
    const double through = node_.rf_switch(port).through_power(rf::SwitchState::kAbsorb);
    std::vector<double> power(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double f = chirp.frequency_at(double(i) / fs);
      power[i] = dbm2watt(channel_.incident_port_power_dbm(port, f, pose, paths)) * through;
    }
    const auto volts = node_.detector(port).detect(power, fs, rng);
    return node_.mcu().sample(volts, fs);
  };

  const auto trace_a = port_trace(FsaPort::kA);
  const auto trace_b = port_trace(FsaPort::kB);
  return node_orientation_from_traces(trace_a, trace_b);
}

std::optional<node::NodeOrientationEstimate> MilBackLink::node_orientation_from_traces(
    const std::vector<double>& trace_a, const std::vector<double>& trace_b) const {
  return node::estimate_orientation_at_node(trace_a, trace_b,
                                            node_.mcu().adc().config().sample_rate_hz,
                                            config_.packet.preamble.field1, node_.fsa());
}

DownlinkRunResult MilBackLink::run_downlink(const channel::NodePose& pose,
                                            const std::vector<bool>& bits,
                                            milback::Rng& rng) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const auto orient = ap_.sense_orientation(channel_, pose, rng);
  return downlink_payload(pose, bits, orient, rng);
}

DownlinkRunResult MilBackLink::downlink_payload(const channel::NodePose& pose,
                                                const std::vector<bool>& bits,
                                                const ap::ApOrientationResult& orient,
                                                milback::Rng& rng) const {
  DownlinkRunResult result;
  result.bits_sent = bits.size();
  if (!orient.valid) return result;
  result.orientation_estimate_deg = orient.orientation_deg;

  const auto carriers = ap_.select_carriers(channel_.fsa(), orient.orientation_deg);
  if (!carriers) return result;
  result.carriers_ok = true;
  result.carriers = *carriers;
  result.mode = carriers->mode;

  const auto& dl = ap_.downlink();
  const double fs = dl.config().symbol_rate_hz * double(dl.config().oversample);
  const double through = node_.rf_switch(FsaPort::kA).through_power(rf::SwitchState::kAbsorb);

  std::vector<bool> rx_bits;
  if (carriers->mode == ModulationMode::kOaqfm) {
    const auto symbols = symbols_from_bits(bits);
    auto waveforms = dl.synthesize(channel_, pose, *carriers, symbols);
    for (auto& p : waveforms.power_a_w) p *= through;
    for (auto& p : waveforms.power_b_w) p *= through;
    const auto va = node_.detector(FsaPort::kA).detect(waveforms.power_a_w, fs, rng);
    const auto vb = node_.detector(FsaPort::kB).detect(waveforms.power_b_w, fs, rng);
    node::DownlinkDemodConfig demod{.symbol_rate_hz = dl.config().symbol_rate_hz,
                                    .sample_point = 0.75,
                                    .mode = ModulationMode::kOaqfm};
    const auto decision = node::demodulate_downlink(va, vb, fs, demod);
    rx_bits = bits_from_symbols(decision.symbols);
    rx_bits.resize(std::min(rx_bits.size(), bits.size()));
  } else {
    auto waveforms = dl.synthesize_ook(channel_, pose, *carriers, bits);
    for (auto& p : waveforms.power_a_w) p *= through;
    for (auto& p : waveforms.power_b_w) p *= through;
    const auto va = node_.detector(FsaPort::kA).detect(waveforms.power_a_w, fs, rng);
    const auto vb = node_.detector(FsaPort::kB).detect(waveforms.power_b_w, fs, rng);
    node::DownlinkDemodConfig demod{.symbol_rate_hz = dl.config().symbol_rate_hz,
                                    .sample_point = 0.75,
                                    .mode = ModulationMode::kOok};
    rx_bits = node::demodulate_downlink_ook(va, vb, fs, demod);
    rx_bits.resize(std::min(rx_bits.size(), bits.size()));
  }

  result.bit_errors = count_bit_errors(bits, rx_bits);
  result.ber = empirical_ber(result.bit_errors, bits.size());

  // Analytic SINR (Fig 14): worst of the two ports at the node's true pose.
  const auto budget_a = channel::compute_downlink_budget(
      channel_, pose, FsaPort::kA, carriers->f_a_hz, carriers->f_b_hz,
      node_.detector(FsaPort::kA), node_.rf_switch(FsaPort::kA),
      config_.downlink_measurement_bw_hz);
  const auto budget_b = channel::compute_downlink_budget(
      channel_, pose, FsaPort::kB, carriers->f_b_hz, carriers->f_a_hz,
      node_.detector(FsaPort::kB), node_.rf_switch(FsaPort::kB),
      config_.downlink_measurement_bw_hz);
  result.sinr_db = std::min(budget_a.sinr_db, budget_b.sinr_db);
  result.analytic_ber =
      ber_oaqfm(db2lin(budget_a.sinr_db), db2lin(budget_b.sinr_db));
  return result;
}

DownlinkRunResult MilBackLink::run_downlink_dense(const channel::NodePose& pose,
                                                  const std::vector<bool>& bits,
                                                  unsigned levels,
                                                  milback::Rng& rng) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  DownlinkRunResult result;
  result.bits_sent = bits.size();
  if (!valid_levels(levels)) return result;

  const auto orient = ap_.sense_orientation(channel_, pose, rng);
  if (!orient.valid) return result;
  result.orientation_estimate_deg = orient.orientation_deg;

  const auto carriers = ap_.select_carriers(channel_.fsa(), orient.orientation_deg);
  if (!carriers || carriers->mode != ModulationMode::kOaqfm) return result;
  result.carriers_ok = true;
  result.carriers = *carriers;
  result.mode = ModulationMode::kOaqfm;

  const auto& dl = ap_.downlink();
  const double fs = dl.config().symbol_rate_hz * double(dl.config().oversample);
  const double through = node_.rf_switch(FsaPort::kA).through_power(rf::SwitchState::kAbsorb);

  // Prefix two full-scale reference symbols so the node's slicer can learn
  // the full-scale voltage before data arrives.
  std::vector<DenseSymbol> symbols(2, DenseSymbol{std::uint8_t(levels - 1),
                                                  std::uint8_t(levels - 1)});
  const auto data = dense_symbols_from_bits(bits, levels);
  symbols.insert(symbols.end(), data.begin(), data.end());

  auto waveforms = dl.synthesize_dense(channel_, pose, *carriers, symbols, levels);
  for (auto& p : waveforms.power_a_w) p *= through;
  for (auto& p : waveforms.power_b_w) p *= through;
  const auto va = node_.detector(FsaPort::kA).detect(waveforms.power_a_w, fs, rng);
  const auto vb = node_.detector(FsaPort::kB).detect(waveforms.power_b_w, fs, rng);
  node::DownlinkDemodConfig demod{.symbol_rate_hz = dl.config().symbol_rate_hz,
                                  .sample_point = 0.75,
                                  .mode = ModulationMode::kOaqfm};
  auto rx_symbols = node::demodulate_downlink_dense(va, vb, fs, demod, levels);
  // Strip the full-scale reference prefix.
  if (rx_symbols.size() >= 2) rx_symbols.erase(rx_symbols.begin(), rx_symbols.begin() + 2);
  rx_symbols.resize(std::min(rx_symbols.size(), data.size()));

  auto rx_bits = dense_bits_from_symbols(rx_symbols, levels);
  rx_bits.resize(std::min(rx_bits.size(), bits.size()));
  result.bit_errors = count_bit_errors(bits, rx_bits);
  result.ber = empirical_ber(result.bit_errors, bits.size());

  // Analytic SINR as in run_downlink, plus the dense constellation penalty
  // applied by the BER mapping.
  const auto budget_a = channel::compute_downlink_budget(
      channel_, pose, FsaPort::kA, carriers->f_a_hz, carriers->f_b_hz,
      node_.detector(FsaPort::kA), node_.rf_switch(FsaPort::kA),
      config_.downlink_measurement_bw_hz);
  const auto budget_b = channel::compute_downlink_budget(
      channel_, pose, FsaPort::kB, carriers->f_b_hz, carriers->f_a_hz,
      node_.detector(FsaPort::kB), node_.rf_switch(FsaPort::kB),
      config_.downlink_measurement_bw_hz);
  result.sinr_db = std::min(budget_a.sinr_db, budget_b.sinr_db);
  result.analytic_ber =
      0.5 * (ber_dense_ask(db2lin(budget_a.sinr_db), levels) +
             ber_dense_ask(db2lin(budget_b.sinr_db), levels));
  return result;
}

UplinkRunResult MilBackLink::run_uplink(const channel::NodePose& pose,
                                        const std::vector<bool>& bits, milback::Rng& rng,
                                        double bit_rate_bps) const {
  require_finite(bit_rate_bps, "bit_rate_bps");
  const double rate = bit_rate_bps > 0.0 ? bit_rate_bps : config_.uplink_bit_rate_bps;
  const auto orient = ap_.sense_orientation(channel_, pose, rng);
  return uplink_payload(pose, bits, orient, rate, rng);
}

UplinkRunResult MilBackLink::uplink_payload(const channel::NodePose& pose,
                                            const std::vector<bool>& bits,
                                            const ap::ApOrientationResult& orient,
                                            double bit_rate_bps, milback::Rng& rng) const {
  UplinkRunResult result;
  result.bits_sent = bits.size();
  if (!orient.valid) return result;
  result.orientation_estimate_deg = orient.orientation_deg;

  const auto carriers = ap_.select_carriers(channel_.fsa(), orient.orientation_deg);
  if (!carriers) return result;
  result.carriers_ok = true;
  result.carriers = *carriers;
  result.mode = carriers->mode;

  ap::UplinkRxConfig rx_cfg = ap_.config().uplink;
  rx_cfg.symbol_rate_hz = bit_rate_bps / double(bits_per_symbol(carriers->mode));
  const ap::UplinkReceiver receiver(rx_cfg);

  std::vector<bool> rx_bits;
  ap::UplinkReception reception;
  const auto pilot = uplink_pilot(rx_cfg.pilot_symbols);
  if (carriers->mode == ModulationMode::kOaqfm) {
    auto symbols = pilot;
    const auto data = symbols_from_bits(bits);
    symbols.insert(symbols.end(), data.begin(), data.end());
    const auto schedule = node::build_uplink_schedule(symbols);
    reception = receiver.receive(channel_, pose, *carriers, schedule,
                                 node_.config().rf_switch, rng);
    rx_bits = bits_from_symbols(reception.symbols);
    rx_bits.resize(std::min(rx_bits.size(), bits.size()));
    result.measured_snr_db =
        std::min(reception.measured_snr_a_db, reception.measured_snr_b_db);
  } else {
    // OOK: both tones carry the same bit; pilot is an alternating bit pair.
    std::vector<bool> tx_bits;
    for (const auto s : pilot) tx_bits.push_back(uplink_ports(s).reflect_a);
    tx_bits.insert(tx_bits.end(), bits.begin(), bits.end());
    const auto schedule = node::build_uplink_schedule_ook(tx_bits);
    reception = receiver.receive(channel_, pose, *carriers, schedule,
                                 node_.config().rf_switch, rng);
    // Use tone A's decision stream (pilot already stripped by the receiver).
    rx_bits.reserve(reception.symbols.size());
    for (const auto s : reception.symbols) {
      rx_bits.push_back(uplink_ports(s).reflect_a);
    }
    rx_bits.resize(std::min(rx_bits.size(), bits.size()));
    result.measured_snr_db = reception.measured_snr_a_db;
  }

  result.bit_errors = count_bit_errors(bits, rx_bits);
  result.ber = empirical_ber(result.bit_errors, bits.size());

  // Analytic SNR (Fig 15): worst tone, noise bandwidth = bit rate.
  rf::RfSwitch sw(node_.config().rf_switch);
  const auto budget_a = channel::compute_uplink_budget(channel_, pose, FsaPort::kA,
                                                       carriers->f_a_hz, sw, bit_rate_bps);
  const auto budget_b = channel::compute_uplink_budget(channel_, pose, FsaPort::kB,
                                                       carriers->f_b_hz, sw, bit_rate_bps);
  result.snr_db = std::min(budget_a.snr_db, budget_b.snr_db);
  result.analytic_ber = ber_oaqfm(db2lin(budget_a.snr_db), db2lin(budget_b.snr_db));
  return result;
}

PacketRunResult MilBackLink::run_packet(const channel::NodePose& pose,
                                        LinkDirection direction,
                                        const std::vector<bool>& payload_bits,
                                        milback::Rng& rng) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  PacketRunResult result;
  result.requested = direction;

  // --- Field 1: node senses direction + its own orientation. ---
  const auto& pre = config_.packet.preamble;
  const auto trace_a = node_field1_trace(pose, FsaPort::kA, direction, rng);
  const auto trace_b = node_field1_trace(pose, FsaPort::kB, direction, rng);
  const double mcu_fs = node_.mcu().adc().config().sample_rate_hz;
  // Use the stronger port's trace for mode detection.
  const double max_a = trace_a.empty() ? 0.0 : *std::max_element(trace_a.begin(), trace_a.end());
  const double max_b = trace_b.empty() ? 0.0 : *std::max_element(trace_b.begin(), trace_b.end());
  result.detected = detect_direction(max_a >= max_b ? trace_a : trace_b, mcu_fs, pre);
  result.direction_ok = result.detected && *result.detected == direction;
  // Orientation: the first chirp opens Field 1 at t = 0 in both directions.
  const auto chirp_samples = std::size_t(std::lround(pre.field1.duration_s * mcu_fs));
  const auto first_chirp = [&](const std::vector<double>& trace) {
    return std::vector<double>(trace.begin(),
                               trace.begin() + std::ptrdiff_t(std::min(chirp_samples,
                                                                       trace.size())));
  };
  result.node_orientation =
      node_orientation_from_traces(first_chirp(trace_a), first_chirp(trace_b));

  // --- Field 2: AP localizes and senses orientation on the same burst. ---
  ap::ChirpBeats rx0_beats;
  result.localization = ap_.localizer().localize(channel_, pose, rng, &rx0_beats);
  result.ap_orientation = ap_.orientation_sensor().estimate(channel_, rx0_beats, rng);

  // --- Payload, on the carriers the Field-2 estimate picks. ---
  const double rate = direction == LinkDirection::kDownlink
                          ? config_.downlink_bit_rate_bps
                          : config_.uplink_bit_rate_bps;
  if (result.direction_ok) {
    if (direction == LinkDirection::kDownlink) {
      result.downlink = downlink_payload(pose, payload_bits, result.ap_orientation, rng);
    } else {
      result.uplink = uplink_payload(pose, payload_bits, result.ap_orientation, rate, rng);
    }
  }

  // --- Timing + node energy. ---
  const double symbol_rate = rate / 2.0;
  result.timing = compute_timing(config_.packet, direction, symbol_rate);
  result.node_energy_j =
      packet_node_energy_j(result.timing, direction, node_.config().power, symbol_rate,
                           node_.config().localization_toggle_hz);
  return result;
}

}  // namespace milback::core
