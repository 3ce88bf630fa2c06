// Receiver noise floors: kTB over a bandwidth, degraded by the chain noise
// figure. Noise samples are drawn through milback::Rng directly.
#pragma once

namespace milback::rf {

/// Receiver noise floor [W]: kTB degraded by the chain noise figure.
double noise_floor_w(double bandwidth_hz, double noise_figure_db);

/// Receiver noise floor [dBm].
double noise_floor_dbm(double bandwidth_hz, double noise_figure_db);

}  // namespace milback::rf
