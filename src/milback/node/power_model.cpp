#include "milback/node/power_model.hpp"

#include "milback/core/contract.hpp"

namespace milback::node {

double node_power_w(NodeMode mode, const PowerModelConfig& config,
                    double toggle_rate_hz) {
  require_non_negative(toggle_rate_hz, "toggle_rate_hz");
  if (mode == NodeMode::kIdle) return config.idle_power_w;
  // Two detectors + two switch biases + support rail are on in every active
  // mode (the detectors double as the absorptive terminations).
  const double static_w = 2.0 * config.detector_power_w +
                          2.0 * config.switch_static_power_w + config.support_power_w;
  double dynamic_w = 0.0;
  if (mode == NodeMode::kUplink || mode == NodeMode::kLocalization) {
    dynamic_w = 2.0 * config.switch_toggle_energy_j * toggle_rate_hz;
  }
  return static_w + dynamic_w;
}

double node_power_with_mcu_w(NodeMode mode, const PowerModelConfig& config,
                             double toggle_rate_hz) {
  return node_power_w(mode, config, toggle_rate_hz) +
         (mode == NodeMode::kIdle ? 0.0 : config.mcu_power_w);
}

double energy_per_bit_j(double power_w, double bit_rate_bps) noexcept {
  if (bit_rate_bps <= 0.0) return 0.0;
  return power_w / bit_rate_bps;
}

}  // namespace milback::node
