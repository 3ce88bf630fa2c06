#include "milback/channel/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {

double fspl_db(double distance_m, double frequency_hz) noexcept {
  const double d = std::max(distance_m, 0.01);
  return 20.0 * std::log10(4.0 * kPi * d / wavelength(frequency_hz));
}

double friis_dbm(double tx_power_dbm, double tx_gain_dbi, double rx_gain_dbi,
                 double distance_m, double frequency_hz) noexcept {
  return tx_power_dbm + tx_gain_dbi + rx_gain_dbi - fspl_db(distance_m, frequency_hz);
}

double backscatter_dbm(double tx_power_dbm, double ap_tx_gain_dbi, double ap_rx_gain_dbi,
                       double node_gain_in_dbi, double node_gain_out_dbi,
                       double reflect_power_coeff, double distance_m,
                       double frequency_hz) {
  require_positive(frequency_hz, "frequency_hz");
  const double loss = fspl_db(distance_m, frequency_hz);
  const double reflect_db = lin2db(std::max(reflect_power_coeff, 1e-30));
  return tx_power_dbm + ap_tx_gain_dbi + node_gain_in_dbi - loss + reflect_db +
         node_gain_out_dbi + ap_rx_gain_dbi - loss;
}

double radar_return_dbm(double tx_power_dbm, double tx_gain_dbi, double rx_gain_dbi,
                        double rcs_m2, double distance_m, double frequency_hz) {
  // Pr = Pt Gt Gr lambda^2 sigma / ((4 pi)^3 d^4)
  require_positive(frequency_hz, "frequency_hz");
  const double d = std::max(distance_m, 0.01);
  const double lam = wavelength(frequency_hz);
  const double num_db = tx_power_dbm + tx_gain_dbi + rx_gain_dbi +
                        lin2db(lam * lam * std::max(rcs_m2, 1e-12));
  const double den_db = lin2db(std::pow(4.0 * kPi, 3) * std::pow(d, 4));
  return num_db - den_db;
}

double one_way_delay_s(double distance_m) noexcept { return distance_m / kSpeedOfLight; }

double round_trip_delay_s(double distance_m) noexcept {
  return 2.0 * distance_m / kSpeedOfLight;
}

double round_trip_phase_rad(double distance_m, double frequency_hz) {
  return wrap_radians(2.0 * kPi * frequency_hz * round_trip_delay_s(distance_m));
}

}  // namespace milback::channel
