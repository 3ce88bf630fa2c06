// Smart-warehouse scenario — a multi-node MilBack network with SDM.
//
// Section 7: "MilBack can potentially support multiple nodes by using
// spatial division multiplexing". This example deploys battery-free asset
// tags across a warehouse aisle, discovers them all (localization +
// orientation), schedules them into SDM slots by bearing separation, then
// runs uplink inventory rounds and reports per-tag link quality, goodput and
// the interference penalty concurrent tags pay. A final phase replays a
// working shift on the event queue of a second cell engine: pallets leave
// on forklifts, new stock arrives mid-shift, one pallet is relocated, and a
// forklift parks in the aisle for a while (blockage) — churn a single SDM
// round cannot express.
//
// Build & run:  ./build/examples/smart_warehouse [seed]
//
// Telemetry walkthrough (Perfetto):
//   MILBACK_TRACE_DIR=out MILBACK_METRICS_DIR=out ./build/examples/smart_warehouse
// then open https://ui.perfetto.dev and drag in out/trace.json. The "cell
// engine" track shows one span per service sweep (width = simulated air
// time) with the forklift blockage episode as a long span on its own lane;
// timestamps are simulated shift seconds, not wall clock, so the trace is
// identical on every run. out/metrics.jsonl carries per-tag latency/SNR
// histograms (p50/p95) and event counts for the same shift.
#include <iostream>

#include "milback/cell/cell_engine.hpp"
#include "milback/obs/exporters.hpp"
#include "milback/util/table.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 23;
  Rng master(seed);

  auto env_rng = master.fork(1);
  cell::CellEngine net(channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng)));

  // Six pallet tags spread across the aisle.
  net.add_node("pallet-A1", {.pose = {2.0, -28.0, 8.0}});
  net.add_node("pallet-A2", {.pose = {3.5, -24.0, -12.0}});
  net.add_node("pallet-B1", {.pose = {2.5, -2.0, 15.0}});
  net.add_node("pallet-B2", {.pose = {4.5, 3.0, -18.0}});
  net.add_node("pallet-C1", {.pose = {3.0, 25.0, 10.0}});
  net.add_node("pallet-C2", {.pose = {5.0, 30.0, -8.0}});

  // --- Discovery sweep: localize + orientation for every tag, one at a time
  // (the others keep their ports absorptive and are effectively invisible).
  std::cout << "Discovery sweep (" << net.node_count() << " tags):\n";
  auto rng = master.fork(2);
  Table d({"tag", "true (m,deg)", "est range (m)", "est bearing (deg)",
           "est orient (deg)", "det SNR (dB)"});
  int discovered = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto& truth = net.node_pose(i);
    const auto loc = net.link().localize(truth, rng);
    const auto orient = net.link().sense_orientation_at_ap(truth, rng);
    if (loc.detected) ++discovered;
    d.add_row({std::string(net.node_id(i).view()),
               Table::num(truth.distance_m, 1) + ", " + Table::num(truth.azimuth_deg, 0),
               loc.detected ? Table::num(loc.range_m, 2) : "-",
               loc.detected ? Table::num(loc.angle_deg, 1) : "-",
               orient.valid ? Table::num(orient.orientation_deg, 1) : "-",
               loc.detected ? Table::num(loc.detection_snr_db, 1) : "-"});
  }
  d.print(std::cout);
  std::cout << "  discovered " << discovered << "/" << net.node_count() << " tags\n\n";

  // --- SDM schedule.
  const auto slots = net.sdm_slots();
  std::cout << "SDM schedule (min separation "
            << Table::num(net.config().network.sdm_min_separation_deg, 0) << " deg -> "
            << slots.size() << " slots):\n";
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::cout << "  slot " << s << ":";
    for (const auto i : slots[s]) std::cout << " " << net.node_id(i).view();
    std::cout << "\n";
  }

  // --- Inventory rounds: every tag uplinks its payload.
  std::cout << "\nInventory round (800 bits/tag uplink):\n";
  auto round_rng = master.fork(3);
  const auto round = net.run_uplink_round(800, round_rng);
  Table u({"tag", "slot", "BER", "budget SNR (dB)", "eff. SNR w/ SDM (dB)",
           "goodput (Mbps)"});
  for (const auto& n : round.nodes) {
    u.add_row({n.id, std::to_string(n.sdm_slot), Table::sci(n.uplink.ber, 1),
               Table::num(n.uplink.snr_db, 1), Table::num(n.effective_snr_db, 1),
               Table::num(n.goodput_bps / 1e6, 2)});
  }
  u.print(std::cout);
  std::cout << "  aggregate goodput: " << Table::num(round.aggregate_goodput_bps / 1e6, 2)
            << " Mbps across " << round.sdm_slots << " slot(s)\n";

  // --- A working shift on the cell engine: continuous inventory telemetry
  // under churn. Same room (same environment stream), richer timeline.
  std::cout << "\nShift replay (cell engine, 0.5 s compressed timeline):\n";
  auto shift_env = master.fork(1);  // same fork id -> same warehouse
  cell::CellEngine shift(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(shift_env)),
                         cell::CellConfig{});
  const std::vector<std::pair<std::string, channel::NodePose>> tags{
      {"pallet-A1", {2.0, -28.0, 8.0}},  {"pallet-A2", {3.5, -24.0, -12.0}},
      {"pallet-B1", {2.5, -2.0, 15.0}},  {"pallet-B2", {4.5, 3.0, -18.0}},
      {"pallet-C1", {3.0, 25.0, 10.0}},  {"pallet-C2", {5.0, 30.0, -8.0}}};
  for (const auto& [id, pose] : tags) {
    shift.add_node(id, {.pose = pose, .arrival_rate_bps = 200e3, .burstiness = 0.5});
  }
  // Mid-shift churn: A2 ships out, fresh stock lands on dock D1, B2 is
  // relocated one rack over, and a forklift blocks the aisle for 100 ms.
  shift.schedule_leave(1, 0.20);
  shift.add_node("pallet-D1", {.pose = {4.0, -15.0, 5.0}, .arrival_rate_bps = 200e3},
                 /*join_time_s=*/0.25);
  shift.schedule_move(3, 0.30, {4.5, 12.0, -18.0});
  shift.schedule_blockage(0.35, 0.45, 12.0);

  const auto report = shift.run(0.5, master.fork(4).engine()());
  Table s({"tag", "alive", "rounds served", "offered (kbit)", "delivered (kbit)",
           "p50 latency (ms)", "p95 latency (ms)"});
  for (const auto& n : report.nodes) {
    s.add_row({std::string(n.id.view()), n.leave_time_s >= 0.0 ? "left" : "yes",
               std::to_string(n.rounds_served), Table::num(n.offered_bits / 1e3, 1),
               Table::num(n.delivered_bits / 1e3, 1),
               Table::num(n.p50_latency_s * 1e3, 2),
               Table::num(n.p95_latency_s * 1e3, 2)});
  }
  s.print(std::cout);
  std::cout << "  " << report.service_rounds << " service rounds, peak "
            << report.peak_population << " tags, "
            << (report.stable ? "stable" : "UNSTABLE") << "; cell capacity "
            << Table::num(report.cell_capacity_bps / 1e6, 2) << " Mbps\n"
            << "\nEvery tag runs battery-free at 18-32 mW only while addressed;\n"
               "bearing-separated tags share air time via the AP's beams, and\n"
               "the event queue absorbs arrivals, departures and blockage\n"
               "without re-planning the schedule by hand.\n";
  // With MILBACK_METRICS_DIR / MILBACK_TRACE_DIR set, dump the shift's
  // telemetry (metrics.jsonl / metrics.prom / Perfetto trace.json).
  obs::write_env_exports();
  return discovered == int(net.node_count()) ? 0 : 1;
}
