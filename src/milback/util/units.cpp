#include "milback/util/units.hpp"

#include "milback/core/contract.hpp"

namespace milback {

double wrap_degrees(double deg) {
  require_finite(deg, "deg");
  double wrapped = std::fmod(deg + 180.0, 360.0);
  if (wrapped < 0.0) wrapped += 360.0;
  return wrapped - 180.0;
}

double wrap_radians(double rad) {
  require_finite(rad, "rad");
  double wrapped = std::fmod(rad + kPi, 2.0 * kPi);
  if (wrapped < 0.0) wrapped += 2.0 * kPi;
  return wrapped - kPi;
}

}  // namespace milback
