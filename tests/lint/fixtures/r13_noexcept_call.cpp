// Staged as src/milback/fix/: noexcept wrappers over functions with their own
// contract check, one level down. The check throws, and the throw leaves
// through the wrapper's noexcept, so a violation calls std::terminate.
#include "milback/core/contract.hpp"

namespace milback::fix {

double checked_gain_dbi(double angle_deg) {
  require_finite(angle_deg, "angle_deg");
  return -3.0 * angle_deg * angle_deg;
}

double gain_lin(double angle_deg) noexcept {  // lint-expect: R13
  return 1.0 + checked_gain_dbi(angle_deg);
}

struct Horn {
  double pattern_db(double angle_deg) const {
    MILBACK_REQUIRE(angle_deg > -90.0, "angle within the front half-plane");
    return angle_deg;
  }
  double pattern_lin(double angle_deg) const noexcept {  // lint-expect: R13
    return 2.0 * pattern_db(angle_deg);
  }
};

}  // namespace milback::fix
