// link_office: two-way packet exchanges over a cluttered office.
//
// Operation: one two-way exchange with a node — an uplink and then a
// downlink MilBackLink::run_packet at the node's pose, each running Field 1
// (direction detection and node orientation), Field 2 (five-chirp
// localization) and a 512-bit OAQFM payload. Pairing the directions keeps
// the operation's latency unimodal; uplink and downlink packets alone form
// two populations whose boundary a median would straddle. The channel is
// the indoor_office clutter scene; there are no walls, so the channel's
// line-of-sight fast path runs and the cell, mesh, sim and multipath layers
// do no work.
#include <algorithm>
#include <cmath>
#include <vector>

#include "e2e.hpp"
#include "milback/core/link.hpp"

namespace e2e {

namespace {

using milback::Rng;
using milback::antenna::FsaPort;
using milback::channel::NodePose;
using milback::core::LinkDirection;

constexpr std::size_t kExchangesPerRep = 100;
constexpr std::size_t kWarmupExchanges = 10;
constexpr std::size_t kPayloadBits = 512;
// A fix this far off locked onto a ghost; ordinary ranging noise stays
// under ~0.15 m in this pose range.
constexpr double kMaxRangeErrorM = 0.5;
// Stream id of warm-up draws, apart from every measured repetition.
constexpr std::uint64_t kWarmupRep = 0xffff;

struct Exchange {
  NodePose pose;
  std::vector<bool> uplink_bits;
  std::vector<bool> downlink_bits;
  Rng rng;
};

Exchange make_exchange(std::uint64_t seed, std::uint64_t rep, std::size_t i) {
  Rng rng = Rng::stream(seed, rep, i);
  NodePose pose;
  // Poses where the paper's link closes: within 4 m, and 8-16 deg off normal
  // incidence, where OAQFM has two distinct carriers. Nearer normal
  // incidence the carriers degenerate, and past 4 m ghost locks appear.
  pose.distance_m = rng.uniform(1.0, 4.0);
  pose.azimuth_deg = rng.uniform(-25.0, 25.0);
  pose.orientation_deg = rng.uniform(8.0, 16.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
  auto uplink_bits = rng.bits(kPayloadBits);
  auto downlink_bits = rng.bits(kPayloadBits);
  return Exchange{pose, std::move(uplink_bits), std::move(downlink_bits), rng};
}

milback::core::MilBackLink make_link() {
  Rng env_rng(kOfficeSceneSeed);
  return milback::core::MilBackLink(milback::channel::BackscatterChannel::make_default(
      milback::channel::Environment::indoor_office(env_rng)));
}

// Checks one packet against the node's true pose and payload and folds it
// into `out`: the direction must be detected, the node localized without a
// ghost lock, and the payload delivered without a bit error.
void check_packet(const milback::core::PacketRunResult& res, const NodePose& pose,
                  RepOut& out) {
  const auto& fix = res.localization;
  const double range_err_m = std::abs(fix.range_m - pose.distance_m);
  bool payload_ok = false;
  std::size_t bit_errors = kPayloadBits;
  if (res.uplink) {
    payload_ok = res.uplink->carriers_ok && res.uplink->bit_errors == 0;
    bit_errors = res.uplink->bit_errors;
  } else if (res.downlink) {
    payload_ok = res.downlink->carriers_ok && res.downlink->bit_errors == 0;
    bit_errors = res.downlink->bit_errors;
  }
  const bool ok = res.direction_ok && fix.detected && range_err_m <= kMaxRangeErrorM &&
                  payload_ok;
  out.attempted += 1;
  out.failed += ok ? 0 : 1;
  if (fix.detected) out.loc_err_cm.push_back(100.0 * range_err_m);
  out.digest.add(res.direction_ok);
  out.digest.add(fix.detected);
  out.digest.add(fix.range_m);
  out.digest.add(fix.angle_deg);
  out.digest.add(std::uint64_t(bit_errors));
  out.digest.add(res.node_energy_j);
}

// Which packets of an exchange carried their payload.
struct Payloads {
  bool uplink = false;
  bool downlink = false;
};

// Runs exchange i of repetition `rep` and folds both packets into `out`.
Payloads run_exchange(const milback::core::MilBackLink& link, std::uint64_t seed,
                         std::uint64_t rep, std::size_t i, RepOut& out) {
  auto ex = make_exchange(seed, rep, i);
  milback::core::PacketRunResult up, down;
  const double op_s = timed_s([&] {
    up = link.run_packet(ex.pose, LinkDirection::kUplink, ex.uplink_bits, ex.rng);
    down = link.run_packet(ex.pose, LinkDirection::kDownlink, ex.downlink_bits, ex.rng);
  });
  out.op_ms.push_back(1e3 * op_s);
  out.work_s += op_s;
  check_packet(up, ex.pose, out);
  check_packet(down, ex.pose, out);
  return Payloads{up.uplink.has_value(), down.downlink.has_value()};
}

}  // namespace

void link_office(const Options& opt, Result& result) {
  result.op_name = "two-way exchange";
  // Set-up: a fresh link, warmed by a few exchanges (plan and window caches).
  milback::core::MilBackLink link = make_link();
  const auto setup = [&] {
    link = make_link();
    RepOut warm;
    for (std::size_t i = 0; i < kWarmupExchanges; ++i) {
      run_exchange(link, opt.seed, kWarmupRep, i, warm);
    }
  };
  const auto rep_fn = [&](std::uint64_t rep, RepOut& out) {
    for (std::size_t i = 0; i < kExchangesPerRep; ++i) {
      run_exchange(link, opt.seed, rep, i, out);
    }
  };
  if (!opt.traced) {
    timed_phase(opt, 3, setup, rep_fn, result);
    return;
  }

  timed_setup(setup, result);
  // The traced pass writes last.
  std::vector<Payloads> payloads(kExchangesPerRep);
  traced_ops_phase(
      kExchangesPerRep,
      [&](std::size_t i, RepOut& out) { payloads[i] = run_exchange(link, opt.seed, 0, i, out); },
      result);
  const double ops = double(kExchangesPerRep);
  const double uplinks =
      double(std::count_if(payloads.begin(), payloads.end(), [](Payloads p) { return p.uplink; }));
  const double downlinks = double(
      std::count_if(payloads.begin(), payloads.end(), [](Payloads p) { return p.downlink; }));

  // Layer inputs: the first exchanges of repetition 0.
  std::vector<Exchange> inputs;
  std::vector<NodePose> poses;
  for (std::size_t i = 0; i < 16; ++i) {
    inputs.push_back(make_exchange(opt.seed, 0, i));
    poses.push_back(inputs.back().pose);
  }
  const double budget = 0.02 * opt.seconds;
  Rng rng = Rng::stream(opt.seed, kWarmupRep, 1);
  const auto n = inputs.size();
  auto& rows = result.layers;
  // Each run_packet traces Field 1 at both ports and senses orientation once.
  rows.push_back({"node.field1_trace", "op", 4.0,
                  time_per_call_ms(n, budget, [&](std::size_t k) {
                    const auto dir = k % 2 == 0 ? LinkDirection::kUplink : LinkDirection::kDownlink;
                    return double(link.node_field1_trace(inputs[k].pose, FsaPort::kA, dir, rng)
                                      .size());
                  })});
  rows.push_back({"node.sense_orientation", "op", 2.0,
                  time_per_call_ms(n, budget, [&](std::size_t k) {
                    const auto est = link.sense_orientation_at_node(inputs[k].pose, rng);
                    return est ? est->orientation_deg : 0.0;
                  })});
  rows.push_back({"ap.localize", "op", counter("ap.localize.calls") / ops,
                  time_per_call_ms(n, budget, [&](std::size_t k) {
                    return link.localize(inputs[k].pose, rng).range_m;
                  })});
  localizer_rows(link.channel(), link.access_point().localizer(), poses, ops, "ap.localize",
                 budget, result);
  const double sense_ms = time_per_call_ms(n, budget, [&](std::size_t k) {
    return link.sense_orientation_at_ap(inputs[k].pose, rng).orientation_deg;
  });
  rows.push_back({"core.run_uplink", "op", uplinks / ops,
                  time_per_call_ms(n, budget, [&](std::size_t k) {
                    const auto& e = inputs[k];
                    return double(link.run_uplink(e.pose, e.uplink_bits, rng).bit_errors);
                  })});
  rows.push_back({"ap.sense_orientation", "core.run_uplink", uplinks / ops, sense_ms});
  rows.push_back({"core.run_downlink", "op", downlinks / ops,
                  time_per_call_ms(n, budget, [&](std::size_t k) {
                    const auto& e = inputs[k];
                    return double(link.run_downlink(e.pose, e.downlink_bits, rng).bit_errors);
                  })});
  rows.push_back({"ap.sense_orientation", "core.run_downlink", downlinks / ops, sense_ms});
}

}  // namespace e2e
