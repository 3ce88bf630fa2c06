#include "milback/core/session.hpp"

#include "milback/core/contract.hpp"

#include <algorithm>
#include <cmath>

#include "milback/obs/registry.hpp"
#include "milback/util/units.hpp"

namespace milback::core {

namespace {

// Session-layer retry telemetry: how often links acquire, fail a payload
// round, fall back to acquisition, or lean on FEC. Steps may run on
// TrialRunner workers (the cell engine's per-sweep fan-out); counter sums
// are schedule-independent, so these stay kSim.
struct SessionObs {
  obs::Counter rounds;         ///< session.rounds — step() calls.
  obs::Counter acquired;       ///< session.acquired — successful acquisitions.
  obs::Counter comm_failures;  ///< session.comm_failures — failed payload rounds.
  obs::Counter lost;           ///< session.lost — transitions to kLost.
  obs::Counter fec_rounds;     ///< session.fec_rounds — rounds with FEC on.
};

const SessionObs& session_obs() {
  static const SessionObs instance = [] {
    auto& r = obs::Registry::global();
    SessionObs o;
    o.rounds = r.counter("session.rounds");
    o.acquired = r.counter("session.acquired");
    o.comm_failures = r.counter("session.comm_failures");
    o.lost = r.counter("session.lost");
    o.fec_rounds = r.counter("session.fec_rounds");
    return o;
  }();
  return instance;
}

}  // namespace

AdaptiveSession::AdaptiveSession(const SessionConfig& config)
    : config_(config),
      scanner_(config.scan),
      tracker_(config.tracker) {}

std::pair<double, bool> AdaptiveSession::adapt(double snr_db) const {
  // Measured quality outranks the budget: if recent payloads erred, back off
  // to the conservative operating point whatever the model predicts.
  if (measured_ber_ema_ > config_.ber_backoff) return {10e6, true};
  const auto decision = adapt_rate(config_.rate, snr_db);
  return {decision.rate_bps, decision.fec};
}

SessionStep AdaptiveSession::step(const MilBackLink& link,
                                  const channel::NodePose& true_pose,
                                  milback::Rng& rng) {
  require_positive(true_pose.distance_m, "true_pose.distance_m");
  require_finite(true_pose.azimuth_deg, "true_pose.azimuth_deg");
  require_finite(true_pose.orientation_deg, "true_pose.orientation_deg");
  SessionStep out;
  session_obs().rounds.add();

  if (state_ != SessionState::kTracking) {
    // --- Acquisition: sweep the sector. ---
    const auto dets = scanner_.scan(link.channel(), link.access_point().localizer(),
                                    {true_pose}, rng);
    if (!dets.empty() && dets.front().fix.detected) {
      session_obs().acquired.add();
      tracker_ = NodeTracker(config_.tracker);  // fresh track
      tracker_.update(dets.front().fix, std::nullopt);
      comm_failures_ = 0;
      measured_ber_ema_ = 0.0;
      state_ = SessionState::kTracking;
      out.localized = true;
      out.range_m = tracker_.state().range_m();
      out.angle_deg = tracker_.state().azimuth_deg();
      out.raw_range_m = dets.front().fix.range_m;
      out.raw_angle_deg = dets.front().fix.angle_deg;
      out.speed_mps = tracker_.state().speed_mps();
    } else {
      state_ = SessionState::kAcquiring;
    }
    out.state = state_;
    return out;
  }

  // --- Tracking round: localize, adapt, exchange. ---
  const auto fix = link.localize(true_pose, rng);
  tracker_.update(fix, std::nullopt);
  out.localized = fix.detected;
  out.range_m = tracker_.state().range_m();
  out.angle_deg = tracker_.state().azimuth_deg();
  if (fix.detected) {
    out.raw_range_m = fix.range_m;
    out.raw_angle_deg = fix.angle_deg;
  }
  out.speed_mps = tracker_.state().speed_mps();

  if (!tracker_.healthy()) {
    state_ = SessionState::kLost;
    session_obs().lost.add();
    out.state = state_;
    return out;
  }

  // Budget SNR at the tracked range (10 Mbps reference bandwidth).
  rf::RfSwitch sw{link.node().config().rf_switch};
  const auto pair =
      link.channel().fsa().carrier_pair_for_angle(true_pose.orientation_deg);
  if (pair) {
    channel::NodePose tracked = true_pose;
    tracked.distance_m = std::max(out.range_m, 0.3);
    const auto budget = channel::compute_uplink_budget(
        link.channel(), tracked, antenna::FsaPort::kA, pair->first, sw, 10e6);
    out.budget_snr_db = budget.snr_db;
  }

  const auto [rate, fec] = adapt(out.budget_snr_db);
  out.uplink_rate_bps = rate;
  out.fec_enabled = fec;
  if (fec) session_obs().fec_rounds.add();

  // Payload: encode if FEC chosen, run the uplink, decode, count data errors.
  auto data_rng = rng.fork(0x5e55);
  const auto data = data_rng.bits(config_.payload_bits);
  const auto tx_bits = fec ? hamming74_encode(data) : data;
  const auto run = link.run_uplink(true_pose, tx_bits, rng, rate);
  // Liveness: only the node's modulated reply proves the link is real. A
  // clutter residue can fake a localization fix but cannot answer a query.
  const bool comm_failed = !run.carriers_ok || run.ber > config_.comm_failure_ber;
  if (comm_failed) session_obs().comm_failures.add();
  comm_failures_ = comm_failed ? comm_failures_ + 1 : 0;
  measured_ber_ema_ = 0.5 * measured_ber_ema_ + 0.5 * (run.carriers_ok ? run.ber : 0.5);
  if (comm_failures_ >= config_.max_comm_failures) {
    state_ = SessionState::kLost;
    session_obs().lost.add();
    comm_failures_ = 0;
  }
  if (!run.carriers_ok) {
    out.payload_bit_errors = data.size();
    out.state = state_;
    return out;
  }

  // Reconstruct post-FEC data errors. The uplink channel is memoryless per
  // bit in this simulation, so re-apply the measured BER i.i.d. for the FEC
  // accounting (run_uplink reports only the error count).
  std::size_t data_errors;
  if (fec) {
    auto flip = rng.fork(0xfec);
    auto received = tx_bits;
    for (std::size_t i = 0; i < received.size(); ++i) {
      if (flip.bernoulli(run.ber)) received[i] = !received[i];
    }
    const auto dec = hamming74_decode(received);
    data_errors = 0;
    for (std::size_t i = 0; i < data.size() && i < dec.data.size(); ++i) {
      data_errors += dec.data[i] != data[i];
    }
  } else {
    data_errors = run.bit_errors;
  }
  out.payload_bit_errors = data_errors;

  const double airtime_s = double(tx_bits.size()) / rate;
  const double good_bits =
      double(data.size() - std::min(data_errors, data.size()));
  out.delivered_data_bps = airtime_s > 0.0 ? good_bits / airtime_s : 0.0;
  out.state = state_;
  return out;
}

}  // namespace milback::core
