// Seeded R3 violations, staged as src/milback/fix/: public-header doubles
// that name physical quantities but carry no unit suffix.
#pragma once

namespace milback::fix {

struct LinkSpec {
  double carrier_freq = 24e9;  // lint-expect: R3
  double tx_power_dbm = 10.0;
};

double path_gain_db(double distance, double f_hz);  // lint-expect: R3

}  // namespace milback::fix
