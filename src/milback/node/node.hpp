// The MilBack backscatter node (Section 4, Figure 4 of the paper).
//
// Architecture: a dual-port FSA whose each port feeds an SPDT switch that
// routes to either the FSA ground plane (reflect) or a matched envelope
// detector (absorb, output to the MCU ADC). No phased arrays, phase
// shifters, amplifiers, oscillators or mixers anywhere.
#pragma once

#include "milback/antenna/fsa.hpp"
#include "milback/node/mcu.hpp"
#include "milback/node/power_model.hpp"
#include "milback/rf/envelope_detector.hpp"
#include "milback/rf/rf_switch.hpp"

namespace milback::node {

/// Full node bill of materials.
struct NodeConfig {
  antenna::FsaConfig fsa{};
  rf::RfSwitchConfig rf_switch{};
  rf::EnvelopeDetectorConfig detector{};
  McuConfig mcu{};
  PowerModelConfig power{};
  double localization_toggle_hz = 10e3;  ///< Port switching rate in Field 2.
};

/// The backscatter node: passive antenna + two switches + two detectors + MCU.
class MilBackNode {
 public:
  /// Assembles the node from its configuration.
  explicit MilBackNode(const NodeConfig& config = {});

  /// Routes one port's switch.
  void set_port(antenna::FsaPort port, rf::SwitchState state) noexcept;

  /// Current switch state of a port.
  rf::SwitchState port_state(antenna::FsaPort port) const noexcept;

  /// Sets both ports at once (the common protocol transitions).
  void set_ports(rf::SwitchState a, rf::SwitchState b) noexcept;

  /// Power reflection coefficient currently presented by a port (switch
  /// state dependent).
  double reflection_power(antenna::FsaPort port) const noexcept;

  /// Power reflection coefficient a port would present in `state`.
  double reflection_power(antenna::FsaPort port, rf::SwitchState state) const noexcept;

  /// Fraction of the power entering a port that reaches its detector now.
  double through_power(antenna::FsaPort port) const noexcept;

  /// Enters the mode's canonical switch configuration and updates the mode
  /// used for power accounting.
  void enter_mode(NodeMode mode) noexcept;

  /// Mode used for power accounting.
  NodeMode mode() const noexcept { return mode_; }

  /// Node power draw in the current mode [W], excluding the MCU.
  /// `toggle_rate_hz` defaults by mode (localization toggle or 0).
  double power_w(double toggle_rate_hz = -1.0) const;

  /// Maximum uplink bit rate [bps] the switches support (2 bits/symbol,
  /// one possible transition per symbol per switch).
  double max_uplink_bit_rate_bps() const noexcept;

  /// Maximum downlink bit rate [bps] the detectors support (2 bits/symbol).
  double max_downlink_bit_rate_bps() const noexcept;

  /// Component access.
  const antenna::DualPortFsa& fsa() const noexcept { return fsa_; }
  const rf::EnvelopeDetector& detector(antenna::FsaPort port) const noexcept;
  const rf::RfSwitch& rf_switch(antenna::FsaPort port) const noexcept;
  const Mcu& mcu() const noexcept { return mcu_; }
  const NodeConfig& config() const noexcept { return config_; }

 private:
  NodeConfig config_;
  antenna::DualPortFsa fsa_;
  rf::RfSwitch switch_a_;
  rf::RfSwitch switch_b_;
  rf::EnvelopeDetector detector_a_;
  rf::EnvelopeDetector detector_b_;
  Mcu mcu_;
  NodeMode mode_ = NodeMode::kIdle;
};

}  // namespace milback::node
