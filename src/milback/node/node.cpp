#include "milback/node/node.hpp"

namespace milback::node {

MilBackNode::MilBackNode(const NodeConfig& config)
    : config_(config),
      fsa_(config.fsa),
      switch_a_(config.rf_switch),
      switch_b_(config.rf_switch),
      detector_a_(config.detector),
      detector_b_(config.detector),
      mcu_(config.mcu) {}

void MilBackNode::set_port(antenna::FsaPort port, rf::SwitchState state) noexcept {
  (port == antenna::FsaPort::kA ? switch_a_ : switch_b_).set_state(state);
}

rf::SwitchState MilBackNode::port_state(antenna::FsaPort port) const noexcept {
  return (port == antenna::FsaPort::kA ? switch_a_ : switch_b_).state();
}

void MilBackNode::set_ports(rf::SwitchState a, rf::SwitchState b) noexcept {
  switch_a_.set_state(a);
  switch_b_.set_state(b);
}

double MilBackNode::reflection_power(antenna::FsaPort port) const noexcept {
  return reflection_power(port, port_state(port));
}

double MilBackNode::reflection_power(antenna::FsaPort port,
                                     rf::SwitchState state) const noexcept {
  return (port == antenna::FsaPort::kA ? switch_a_ : switch_b_).reflection_power(state);
}

double MilBackNode::through_power(antenna::FsaPort port) const noexcept {
  const auto& sw = port == antenna::FsaPort::kA ? switch_a_ : switch_b_;
  return sw.through_power(sw.state());
}

// milback-analyze: no-contract(mode switch is total over the NodeMode enum; every arm sets both ports)
void MilBackNode::enter_mode(NodeMode mode) noexcept {
  mode_ = mode;
  switch (mode) {
    case NodeMode::kIdle:
    case NodeMode::kOrientationSensing:
    case NodeMode::kDownlink:
      set_ports(rf::SwitchState::kAbsorb, rf::SwitchState::kAbsorb);
      break;
    case NodeMode::kLocalization:
      // Field 2 starts with port A reflecting; the toggling schedule is
      // driven by the protocol layer.
      set_ports(rf::SwitchState::kReflect, rf::SwitchState::kAbsorb);
      break;
    case NodeMode::kUplink:
      set_ports(rf::SwitchState::kAbsorb, rf::SwitchState::kAbsorb);
      break;
  }
}

// milback-analyze: no-contract(negative toggle rate is a sentinel selecting the mode-default rate)
double MilBackNode::power_w(double toggle_rate_hz) const {
  double rate = toggle_rate_hz;
  if (rate < 0.0) {
    rate = mode_ == NodeMode::kLocalization ? config_.localization_toggle_hz : 0.0;
  }
  return node_power_w(mode_, config_.power, rate);
}

double MilBackNode::max_uplink_bit_rate_bps() const noexcept {
  return 2.0 * switch_a_.max_toggle_rate_hz();
}

double MilBackNode::max_downlink_bit_rate_bps() const noexcept {
  return 2.0 * detector_a_.max_symbol_rate_hz();
}

const rf::EnvelopeDetector& MilBackNode::detector(antenna::FsaPort port) const noexcept {
  return port == antenna::FsaPort::kA ? detector_a_ : detector_b_;
}

const rf::RfSwitch& MilBackNode::rf_switch(antenna::FsaPort port) const noexcept {
  return port == antenna::FsaPort::kA ? switch_a_ : switch_b_;
}

}  // namespace milback::node
