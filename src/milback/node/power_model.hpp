// Node power/energy model (Section 9.6 of the paper).
//
// The node has no mmWave amplifiers, mixers or oscillators; its only active
// parts are two envelope detectors and two SPDT switches (plus the MCU,
// which the paper accounts separately since host devices already have one).
// Calibration: static draw sums to the paper's 18 mW (localization and
// downlink); uplink adds switch toggling energy, reaching the paper's 32 mW
// at the 40 Mbps operating point, i.e. 0.5 nJ/bit downlink at 36 Mbps and
// 0.8 nJ/bit uplink at 40 Mbps (vs mmTag's 2.4 nJ/bit, uplink only).
#pragma once

namespace milback::node {

/// What the node is currently doing.
enum class NodeMode {
  kIdle,                ///< Everything biased off except leakage.
  kLocalization,        ///< Ports toggling at 10 kHz, detectors on.
  kOrientationSensing,  ///< Both ports absorptive, detectors + MCU sampling.
  kDownlink,            ///< Both ports absorptive, detectors decoding.
  kUplink,              ///< Ports toggling at the symbol rate.
};

/// Per-component power/energy parameters.
struct PowerModelConfig {
  double detector_power_w = 1.6e-3;       ///< Each envelope detector.
  double switch_static_power_w = 1.5e-3;  ///< Each switch bias.
  double support_power_w = 11.8e-3;       ///< LDO, comparators, glue.
  double switch_toggle_energy_j = 3.5e-10;  ///< Energy per switch transition.
  double idle_power_w = 20e-6;            ///< Sleep leakage.
  double mcu_power_w = 5.76e-3;           ///< MCU (reported separately).
};

/// Node power draw [W] in `mode`, excluding the MCU. `toggle_rate_hz` is the
/// per-switch state-change rate (symbol rate for uplink, 10 kHz for
/// localization, 0 otherwise).
double node_power_w(NodeMode mode, const PowerModelConfig& config,
                    double toggle_rate_hz = 0.0);

/// Same including the MCU.
double node_power_with_mcu_w(NodeMode mode, const PowerModelConfig& config,
                             double toggle_rate_hz = 0.0);

/// Energy per bit [J/bit] at a given power draw and bit rate.
double energy_per_bit_j(double power_w, double bit_rate_bps) noexcept;

}  // namespace milback::node
