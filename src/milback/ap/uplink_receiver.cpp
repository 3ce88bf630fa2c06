#include "milback/ap/uplink_receiver.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "milback/core/contract.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback::ap {

namespace {

using antenna::FsaPort;
using cplx = std::complex<double>;

// Per-symbol coherent decision values for one tone's stream.
//
// The BPF's AC coupling removes the static clutter/self-interference phasor
// together with the signal's own DC component, turning the OOK stream into
// an (approximately) antipodal one. The receiver therefore:
//   1. removes the burst mean (the BPF),
//   2. estimates the carrier phase from the second-moment direction
//      (arg(sum y^2) / 2 — exact for antipodal signals),
//   3. projects onto that axis, and
//   4. uses the known pilot prefix to resolve the +-pi sign ambiguity and to
//      set the slicing threshold.
struct ToneDemod {
  std::vector<double> decisions;  ///< Signed projected value per symbol.
  double threshold = 0.0;         ///< Pilot-derived slicing threshold.
};

ToneDemod demodulate_tone(const channel::BackscatterChannel& channel,
                          const channel::NodePose& pose, const channel::PathSet& paths,
                          FsaPort port, double f_hz,
                          const std::vector<rf::SwitchState>& states,
                          const rf::RfSwitch& sw, const UplinkRxConfig& config,
                          milback::Rng& rng) {
  ToneDemod out;
  const std::size_t os = config.oversample;
  const double fs = config.symbol_rate_hz * double(os);

  // Per-sample reflection coefficient including finite switch transitions.
  const auto gamma = sw.reflection_waveform(states, os, fs);

  // Backscatter power is linear in the reflection coefficient: compute the
  // unit-reflection power once, then scale by gamma(t).
  const double p_unit_w =
      dbm2watt(channel.backscatter_power_dbm(port, f_hz, pose, paths, 1.0));

  // Static clutter reflecting the same tone arrives as a DC phasor.
  double clutter_w = 0.0;
  for (const auto& c : channel.clutter_returns(f_hz, pose)) clutter_w += c.power_w;
  const cplx static_phasor = std::polar(std::sqrt(clutter_w), rng.phase());

  // Node carrier phase (round-trip at 28 GHz: effectively random per burst).
  const cplx node_phase = std::polar(1.0, rng.phase());

  // Effective noise: thermal + multiplicative residual SI, referenced to the
  // "reflect" received power, spread over the simulated bandwidth fs.
  const double p_on_w = p_unit_w * sw.reflection_power(rf::SwitchState::kReflect);
  const double noise_w = channel.effective_uplink_noise_w(p_on_w, fs);

  // Bulk AWGN fill (the dominant per-sample cost), then superpose the
  // deterministic node + clutter phasors with the burst-constant factors
  // hoisted out of the loop.
  std::vector<cplx> y(gamma.size());
  rng.fill_complex_gaussian(y.data(), y.size(), noise_w);
  const double sqrt_p_unit = std::sqrt(p_unit_w);
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    const double amp = sqrt_p_unit * std::sqrt(std::max(gamma[i], 0.0));
    y[i] += amp * node_phase + static_phasor;
  }

  // (1) AC coupling / BPF: remove the burst mean.
  cplx mean{0.0, 0.0};
  for (const auto& v : y) mean += v;
  if (!y.empty()) mean /= double(y.size());
  for (auto& v : y) v -= mean;

  // (2) Carrier-phase estimate from the second moment.
  cplx second{0.0, 0.0};
  for (const auto& v : y) second += v * v;
  const double phase = 0.5 * std::arg(second);
  const cplx rot = std::exp(cplx{0.0, -phase});

  // (3) Project and integrate the settled part of each symbol.
  const auto lo = std::size_t(config.integrate_start * double(os));
  const auto hi = std::max(lo + 1, std::size_t(config.integrate_stop * double(os)));
  out.decisions.reserve(states.size());
  for (std::size_t s = 0; s < states.size(); ++s) {
    double acc = 0.0;
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi && s * os + i < y.size(); ++i) {
      acc += (y[s * os + i] * rot).real();
      ++count;
    }
    out.decisions.push_back(count ? acc / double(count) : 0.0);
  }

  // (4) Pilot-based sign resolution and threshold. The pilot prefix
  // alternates reflect/absorb on every port ("11","00","11","00",...).
  const std::size_t pilot = std::min(config.pilot_symbols, out.decisions.size());
  if (pilot >= 2) {
    double on = 0.0, off = 0.0;
    std::size_t n_on = 0, n_off = 0;
    for (std::size_t s = 0; s < pilot; ++s) {
      const bool reflect = states[s] == rf::SwitchState::kReflect;
      (reflect ? on : off) += out.decisions[s];
      (reflect ? n_on : n_off)++;
    }
    if (n_on) on /= double(n_on);
    if (n_off) off /= double(n_off);
    if (on < off) {
      for (auto& d : out.decisions) d = -d;
      std::swap(on, off);
    }
    out.threshold = 0.5 * (on + off);
  } else {
    // No pilot: fall back to a midpoint threshold with unresolved polarity.
    const auto [mn, mx] = std::minmax_element(out.decisions.begin(), out.decisions.end());
    out.threshold = out.decisions.empty() ? 0.0 : 0.5 * (*mn + *mx);
  }
  return out;
}

// Decision-statistic SNR: separation^2 of the on/off clusters over their
// pooled variance.
double decision_snr_db(const std::vector<double>& decisions,
                       const std::vector<bool>& bits) {
  std::vector<double> on, off;
  for (std::size_t i = 0; i < decisions.size() && i < bits.size(); ++i) {
    (bits[i] ? on : off).push_back(decisions[i]);
  }
  if (on.size() < 2 || off.size() < 2) return 0.0;
  const double sep = milback::mean(on) - milback::mean(off);
  const double var = 0.5 * (milback::variance(on) + milback::variance(off));
  if (var <= 0.0) return 300.0;
  return lin2db(sep * sep / var);
}

}  // namespace

UplinkReceiver::UplinkReceiver(const UplinkRxConfig& config) : config_(config) {
  require_positive(config_.symbol_rate_hz, "symbol_rate_hz");
  require_nonzero(config_.oversample, "oversample");
  require_unit_interval(config_.integrate_start, "integrate_start");
  require_unit_interval(config_.integrate_stop, "integrate_stop");
  MILBACK_REQUIRE(config_.integrate_start < config_.integrate_stop,
                  "UplinkReceiver: integration window is empty");
}

UplinkReception UplinkReceiver::receive(const channel::BackscatterChannel& channel,
                                        const channel::NodePose& pose,
                                        const CarrierSelection& selection,
                                        const node::UplinkSchedule& schedule,
                                        const rf::RfSwitchConfig& node_switch,
                                        milback::Rng& rng) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_positive(selection.f_a_hz, "selection.f_a_hz");
  require_positive(selection.f_b_hz, "selection.f_b_hz");
  MILBACK_REQUIRE(schedule.port_a.size() == schedule.port_b.size(),
                  "UplinkReceiver: per-port schedules must cover the same symbols");
  UplinkReception r;
  rf::RfSwitch sw(node_switch);

  const auto paths = channel.node_path_set(pose);
  const auto tone_a = demodulate_tone(channel, pose, paths, FsaPort::kA, selection.f_a_hz,
                                      schedule.port_a, sw, config_, rng);
  const auto tone_b = demodulate_tone(channel, pose, paths, FsaPort::kB, selection.f_b_hz,
                                      schedule.port_b, sw, config_, rng);

  auto slice = [](const ToneDemod& t) {
    std::vector<bool> bits;
    bits.reserve(t.decisions.size());
    for (const double d : t.decisions) bits.push_back(d > t.threshold);
    return bits;
  };
  const auto bits_a = slice(tone_a);
  const auto bits_b = slice(tone_b);
  r.measured_snr_a_db = decision_snr_db(tone_a.decisions, bits_a);
  r.measured_snr_b_db = decision_snr_db(tone_b.decisions, bits_b);

  // Strip the pilot prefix from the data output.
  const std::size_t pilot = std::min(config_.pilot_symbols, bits_a.size());
  r.decision_a.assign(tone_a.decisions.begin() + std::ptrdiff_t(pilot),
                      tone_a.decisions.end());
  r.decision_b.assign(tone_b.decisions.begin() + std::ptrdiff_t(pilot),
                      tone_b.decisions.end());

  const std::size_t n = std::min(bits_a.size(), bits_b.size());
  for (std::size_t i = pilot; i < n; ++i) {
    r.symbols.push_back(core::uplink_decide(bits_a[i], bits_b[i]));
  }
  return r;
}

}  // namespace milback::ap
