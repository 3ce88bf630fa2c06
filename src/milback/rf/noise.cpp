#include "milback/rf/noise.hpp"

#include "milback/util/units.hpp"

namespace milback::rf {

double noise_floor_w(double bandwidth_hz, double noise_figure_db) {
  return thermal_noise_power(bandwidth_hz) * db2lin(noise_figure_db);
}

double noise_floor_dbm(double bandwidth_hz, double noise_figure_db) {
  return watt2dbm(noise_floor_w(bandwidth_hz, noise_figure_db));
}

}  // namespace milback::rf
