// Clean control for R3, staged as src/milback/fix/: every quantity-like
// double carries a unit suffix, and doubles that are no quantity need none.
#pragma once

namespace milback::fix {

struct LinkBudget {
  double carrier_freq_hz = 24e9;
  double tx_power_dbm = 10.0;
  double range_m = 1.0;
  double scale = 1.0;
  double offset_frac_ = 0.0;
};

double free_space_gain_db(double distance_m, double f_hz);

}  // namespace milback::fix
