// Free-space propagation primitives: Friis one-way loss, the two-segment
// backscatter (radar-like) link, and time-of-flight helpers.
#pragma once

namespace milback::channel {

/// Free-space path loss [dB] over `distance_m` at `frequency_hz` (one way).
/// Distances below 1 cm are clamped to avoid near-field singularities.
double fspl_db(double distance_m, double frequency_hz) noexcept;

/// Friis received power [dBm]:
/// tx_power + tx_gain + rx_gain - FSPL(distance, f).
double friis_dbm(double tx_power_dbm, double tx_gain_dbi, double rx_gain_dbi,
                 double distance_m, double frequency_hz) noexcept;

/// Received power [dBm] of a backscatter return: AP -> node (gain g_node_rx)
/// -> reflect with power coefficient `reflect_power` -> node -> AP.
double backscatter_dbm(double tx_power_dbm, double ap_tx_gain_dbi, double ap_rx_gain_dbi,
                       double node_gain_in_dbi, double node_gain_out_dbi,
                       double reflect_power_coeff, double distance_m,
                       double frequency_hz);

/// Received power [dBm] from a passive clutter reflector of radar cross
/// section `rcs_m2` at `distance_m` (monostatic radar equation).
double radar_return_dbm(double tx_power_dbm, double tx_gain_dbi, double rx_gain_dbi,
                        double rcs_m2, double distance_m, double frequency_hz);

/// One-way propagation delay [s].
double one_way_delay_s(double distance_m) noexcept;

/// Round-trip propagation delay [s].
double round_trip_delay_s(double distance_m) noexcept;

/// Round-trip phase [radians] at `frequency_hz` over `distance_m`.
double round_trip_phase_rad(double distance_m, double frequency_hz);

}  // namespace milback::channel
