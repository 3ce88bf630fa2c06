// Extension — adaptive session over a walk-away/walk-back trajectory.
//
// The session layer glues the paper's primitives into a deployable link:
// beam-scan acquisition, alpha-beta tracking with innovation gating, rate
// adaptation between Fig 15's 10/40 Mbps operating points, Hamming(7,4) FEC
// switching on thin margin, and measured-BER backoff (the budget can be
// fooled by clutter; delivered payloads cannot). The bench runs the walk as
// a cell-engine scenario: the trajectory is a queue of move events, the
// session is stepped by the engine's service sweeps, and every decision is
// captured through the observer hook.
#include "bench_common.hpp"

#include <cmath>

#include "milback/cell/cell_engine.hpp"

using namespace milback;

namespace {

const char* state_name(core::SessionState s) {
  switch (s) {
    case core::SessionState::kAcquiring: return "ACQUIRE";
    case core::SessionState::kTracking: return "TRACK";
    case core::SessionState::kLost: return "LOST";
  }
  return "?";
}

// Walk out to 11 m by round 20, then back in.
double walk_distance_m(std::size_t round) {
  const double phase = double(round) / 20.0;
  return phase <= 1.0 ? 2.0 + 9.0 * phase : 11.0 - 9.0 * (phase - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Extension", "Adaptive session: rate/FEC decisions on a moving node",
                seed);

  constexpr std::size_t kRounds = 40;
  constexpr double kPeriodS = 0.1;

  cell::CellConfig cfg;
  cfg.sessions.emplace();
  cfg.service_period_s = kPeriodS;
  Rng env_rng = Rng::stream(seed, std::uint64_t{1});
  cell::CellEngine engine(bench::make_indoor_channel(env_rng), cfg);

  const auto node = engine.add_node(
      "walker", {.pose = {walk_distance_m(0), 0.0, 15.0}, .arrival_rate_bps = 1e6});
  // One move event per protocol round; churn events dispatch before the
  // sweep at the same instant, so sweep r sees walk_distance_m(r).
  for (std::size_t r = 1; r < kRounds; ++r) {
    engine.schedule_move(node, double(r) * kPeriodS, {walk_distance_m(r), 0.0, 15.0});
  }

  Table t({"round", "true d (m)", "state", "track d (m)", "budget SNR (dB)",
           "rate", "FEC", "data errs", "delivered (Mbps)"});
  CsvWriter csv(CsvWriter::env_dir(), "ext_adaptive_session",
                {"round", "true_d", "tracked_d", "snr_db", "rate_mbps", "fec",
                 "delivered_mbps"});

  double delivered_total_bits = 0.0;
  std::size_t rounds_tracking = 0;
  const std::size_t payload_bits = cfg.sessions->payload_bits;
  engine.set_observer([&](const cell::ServiceObservation& obs) {
    const auto& step = obs.session;
    const double d = walk_distance_m(obs.round);
    if (step.state == core::SessionState::kTracking && step.uplink_rate_bps > 0.0) {
      ++rounds_tracking;
      delivered_total_bits += double(payload_bits - step.payload_bit_errors);
    }
    if (obs.round % 2 == 0) {
      t.add_row({std::to_string(obs.round), Table::num(d, 1), state_name(step.state),
                 step.state == core::SessionState::kTracking ? Table::num(step.range_m, 2)
                                                             : "-",
                 step.uplink_rate_bps > 0 ? Table::num(step.budget_snr_db, 1) : "-",
                 step.uplink_rate_bps > 0
                     ? Table::num(step.uplink_rate_bps / 1e6, 0) + "M"
                     : "-",
                 step.fec_enabled ? "on" : "off", std::to_string(step.payload_bit_errors),
                 Table::num(step.delivered_data_bps / 1e6, 2)});
    }
    csv.row({double(obs.round), d, step.range_m, step.budget_snr_db,
             step.uplink_rate_bps / 1e6, step.fec_enabled ? 1.0 : 0.0,
             step.delivered_data_bps / 1e6});
  });

  engine.run(double(kRounds) * kPeriodS, seed);
  t.print(std::cout);

  std::cout << "\nSession summary: " << rounds_tracking << "/" << kRounds
            << " rounds in tracking, "
            << Table::num(delivered_total_bits / 1e3, 1)
            << " kbit delivered error-free-or-corrected.\n";
  std::cout << "\nReading: the session rides 40 Mbps inside ~5 m, inserts FEC as the\n"
               "margin thins, drops to 10 Mbps beyond the Fig 15b crossover, and —\n"
               "when the budget is fooled at the range edge — the measured-BER\n"
               "backoff keeps the delivered stream clean.\n";
  return 0;
}
