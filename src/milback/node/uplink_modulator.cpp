#include "milback/node/uplink_modulator.hpp"

#include "milback/core/contract.hpp"

namespace milback::node {

UplinkSchedule build_uplink_schedule(const std::vector<core::OaqfmSymbol>& symbols) {
  UplinkSchedule s;
  s.port_a.reserve(symbols.size());
  s.port_b.reserve(symbols.size());
  for (const auto sym : symbols) {
    const auto ports = core::uplink_ports(sym);
    s.port_a.push_back(ports.reflect_a ? rf::SwitchState::kReflect
                                       : rf::SwitchState::kAbsorb);
    s.port_b.push_back(ports.reflect_b ? rf::SwitchState::kReflect
                                       : rf::SwitchState::kAbsorb);
  }
  MILBACK_ENSURE(s.port_a.size() == symbols.size() && s.port_b.size() == symbols.size(),
                 "build_uplink_schedule: one state per symbol per port");
  return s;
}

UplinkSchedule build_uplink_schedule_ook(const std::vector<bool>& bits) {
  UplinkSchedule s;
  s.port_a.reserve(bits.size());
  s.port_b.reserve(bits.size());
  for (const bool b : bits) {
    const auto state = b ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
    s.port_a.push_back(state);
    s.port_b.push_back(state);
  }
  MILBACK_ENSURE(s.port_a.size() == bits.size() && s.port_b.size() == bits.size(),
                 "build_uplink_schedule_ook: one state per bit per port");
  return s;
}

// milback-analyze: no-contract(total over any schedule; counts adjacent state changes)
std::size_t count_transitions(const UplinkSchedule& schedule) noexcept {
  std::size_t n = 0;
  auto count = [&](const std::vector<rf::SwitchState>& seq) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      if (seq[i] != seq[i - 1]) ++n;
    }
  };
  count(schedule.port_a);
  count(schedule.port_b);
  return n;
}

double average_toggle_rate_hz(const UplinkSchedule& schedule,
                              double symbol_rate_hz) {
  const std::size_t symbols = schedule.port_a.size();
  if (symbols < 2) return 0.0;
  require_positive(symbol_rate_hz, "symbol_rate_hz");
  // Transitions per switch per second, averaged over both switches.
  const double duration_s = double(symbols) / symbol_rate_hz;
  return double(count_transitions(schedule)) / 2.0 / duration_s;
}

}  // namespace milback::node
