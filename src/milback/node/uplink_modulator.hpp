// Node-side OAQFM uplink modulation (Section 6.3 of the paper).
//
// The node piggybacks its bits on the AP's two-tone query by independently
// switching each FSA port between reflect (short to ground) and absorb
// (matched detector): '01' reflects f_A, '10' reflects f_B, '11' both,
// '00' neither. The schedule builder also produces the per-port reflection
// waveforms the channel simulation applies to the query tones, including the
// switch's finite transition time.
#pragma once

#include <vector>

#include "milback/core/oaqfm.hpp"
#include "milback/rf/rf_switch.hpp"

namespace milback::node {

/// Per-port switch-state schedule for one uplink burst.
struct UplinkSchedule {
  std::vector<rf::SwitchState> port_a;  ///< One state per symbol.
  std::vector<rf::SwitchState> port_b;  ///< One state per symbol.
};

/// Builds the switch schedule for a symbol stream.
UplinkSchedule build_uplink_schedule(const std::vector<core::OaqfmSymbol>& symbols);

/// OOK fallback schedule: both ports reflect together for a '1' bit.
UplinkSchedule build_uplink_schedule_ook(const std::vector<bool>& bits);

/// Number of state transitions in a schedule (drives the dynamic power
/// term of the uplink power model).
std::size_t count_transitions(const UplinkSchedule& schedule) noexcept;

/// Average per-switch toggle rate [Hz] of a schedule at `symbol_rate_hz`.
double average_toggle_rate_hz(const UplinkSchedule& schedule,
                              double symbol_rate_hz);

}  // namespace milback::node
