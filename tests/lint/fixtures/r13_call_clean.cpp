// Clean control for R13's call following, staged as src/milback/fix/ next to
// r13_noexcept_call.cpp: noexcept bodies that call only unchecked functions,
// call a checked one inside a try block, or reach a name through `.` (some
// other object's member). `pattern_db` is checked in the other fixture but
// defined here without a check, and a file's own definition wins. Calls are
// followed one level only, so the wrapper of a wrapper is clean.
#include "milback/core/contract.hpp"

namespace milback::fix {

double checked_floor(double x) {
  require_non_negative(x, "x");
  return x;
}

double pattern_db(double angle_deg) noexcept { return -angle_deg; }

double unchecked_lin(double angle_deg) noexcept { return 1.0 + pattern_db(angle_deg); }

double guarded_floor(double x) noexcept {
  try {
    return checked_floor(x);
  } catch (...) {
    return 0.0;
  }
}

struct Meter {
  double checked_floor(double x) const { return x; }
};

double member_floor(const Meter& m, double x) noexcept { return m.checked_floor(x); }

double plain_floor(double x) { return checked_floor(x); }

double wraps_wrapper(double x) noexcept { return 1.0 + plain_floor(x); }

}  // namespace milback::fix
