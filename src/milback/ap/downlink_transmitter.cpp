#include "milback/ap/downlink_transmitter.hpp"

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::ap {

namespace {

using antenna::FsaPort;

// Port-power matrix [W]: each port receives both tones through its own
// pattern (one as signal, one as sidelobe leakage) over one traced path set.
struct PortPowers {
  double a_from_a, a_from_b, b_from_a, b_from_b;
};

PortPowers port_powers(const channel::BackscatterChannel& channel,
                       const channel::NodePose& pose, const CarrierSelection& selection) {
  const auto paths = channel.node_path_set(pose);
  const auto power_w = [&](FsaPort port, double f_hz) {
    return dbm2watt(channel.incident_port_power_dbm(port, f_hz, pose, paths));
  };
  return {power_w(FsaPort::kA, selection.f_a_hz), power_w(FsaPort::kA, selection.f_b_hz),
          power_w(FsaPort::kB, selection.f_a_hz), power_w(FsaPort::kB, selection.f_b_hz)};
}

}  // namespace

std::optional<CarrierSelection> select_carriers(const antenna::DualPortFsa& fsa,
                                                double orientation_deg,
                                                double min_tone_separation_hz) {
  require_finite(orientation_deg, "orientation_deg");
  require_positive(min_tone_separation_hz, "min_tone_separation_hz");
  const auto pair = fsa.carrier_pair_for_angle(orientation_deg);
  if (!pair) return std::nullopt;
  CarrierSelection sel;
  sel.f_a_hz = pair->first;
  sel.f_b_hz = pair->second;
  if (std::abs(sel.f_a_hz - sel.f_b_hz) < min_tone_separation_hz) {
    // Normal incidence: both beams demand (nearly) the same carrier.
    const double shared = 0.5 * (sel.f_a_hz + sel.f_b_hz);
    sel.f_a_hz = sel.f_b_hz = shared;
    sel.mode = core::ModulationMode::kOok;
  }
  return sel;
}

DownlinkTransmitter::DownlinkTransmitter(const DownlinkTxConfig& config)
    : config_(config) {
  require_positive(config_.symbol_rate_hz, "symbol_rate_hz");
  require_nonzero(config_.oversample, "oversample");
  require_positive(config_.min_tone_separation_hz, "min_tone_separation_hz");
}

DownlinkWaveforms DownlinkTransmitter::synthesize(
    const channel::BackscatterChannel& channel, const channel::NodePose& pose,
    const CarrierSelection& selection,
    const std::vector<core::OaqfmSymbol>& symbols) const {
  require_positive(selection.f_a_hz, "selection.f_a_hz");
  require_positive(selection.f_b_hz, "selection.f_b_hz");
  DownlinkWaveforms w;
  w.fs = config_.symbol_rate_hz * double(config_.oversample);
  const std::size_t n = symbols.size() * config_.oversample;
  w.power_a_w.assign(n, 0.0);
  w.power_b_w.assign(n, 0.0);

  // Powers add because the detector's video filter averages out the
  // inter-tone beat.
  const PortPowers p = port_powers(channel, pose, selection);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const auto tones = core::downlink_tones(symbols[s]);
    const double pa = (tones.tone_a ? p.a_from_a : 0.0) + (tones.tone_b ? p.a_from_b : 0.0);
    const double pb = (tones.tone_a ? p.b_from_a : 0.0) + (tones.tone_b ? p.b_from_b : 0.0);
    for (std::size_t i = 0; i < config_.oversample; ++i) {
      w.power_a_w[s * config_.oversample + i] = pa;
      w.power_b_w[s * config_.oversample + i] = pb;
    }
  }
  return w;
}

DownlinkWaveforms DownlinkTransmitter::synthesize_ook(
    const channel::BackscatterChannel& channel, const channel::NodePose& pose,
    const CarrierSelection& selection, const std::vector<bool>& bits) const {
  require_positive(selection.f_a_hz, "selection.f_a_hz");
  require_positive(selection.f_b_hz, "selection.f_b_hz");
  DownlinkWaveforms w;
  w.fs = config_.symbol_rate_hz * double(config_.oversample);
  const std::size_t n = bits.size() * config_.oversample;
  w.power_a_w.assign(n, 0.0);
  w.power_b_w.assign(n, 0.0);

  const PortPowers p = port_powers(channel, pose, selection);
  for (std::size_t s = 0; s < bits.size(); ++s) {
    if (!bits[s]) continue;
    for (std::size_t i = 0; i < config_.oversample; ++i) {
      w.power_a_w[s * config_.oversample + i] = p.a_from_a;
      w.power_b_w[s * config_.oversample + i] = p.b_from_b;
    }
  }
  return w;
}

DownlinkWaveforms DownlinkTransmitter::synthesize_dense(
    const channel::BackscatterChannel& channel, const channel::NodePose& pose,
    const CarrierSelection& selection, const std::vector<core::DenseSymbol>& symbols,
    unsigned levels) const {
  require_positive(selection.f_a_hz, "selection.f_a_hz");
  require_positive(selection.f_b_hz, "selection.f_b_hz");
  DownlinkWaveforms w;
  w.fs = config_.symbol_rate_hz * double(config_.oversample);
  const std::size_t n = symbols.size() * config_.oversample;
  w.power_a_w.assign(n, 0.0);
  w.power_b_w.assign(n, 0.0);

  const PortPowers p = port_powers(channel, pose, selection);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    // Power levels are uniform in the detector's (power-linear) domain.
    const double fa = core::level_power_fraction(symbols[s].level_a, levels);
    const double fb = core::level_power_fraction(symbols[s].level_b, levels);
    const double pa = fa * p.a_from_a + fb * p.a_from_b;
    const double pb = fa * p.b_from_a + fb * p.b_from_b;
    for (std::size_t i = 0; i < config_.oversample; ++i) {
      w.power_a_w[s * config_.oversample + i] = pa;
      w.power_b_w[s * config_.oversample + i] = pb;
    }
  }
  return w;
}

}  // namespace milback::ap
