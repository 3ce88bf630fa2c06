// Clean control for R13, staged as src/milback/fix/: checks outside noexcept
// bodies (a lambda's too), noexcept bodies without checks, and noexcept that
// ends a declaration or a function type.
#include "milback/core/contract.hpp"

namespace milback::fix {

double checked_third(double x) {
  MILBACK_REQUIRE(x > 0.0, "x must be positive");
  return x / 3.0;
}

double unchecked_twice(double x) noexcept { return 2.0 * x; }

struct Gain {
  Gain() noexcept = default;
  double scale(double x) const noexcept;
  double db = 0.0;
};

using Transfer = double (*)(double) noexcept;

double lambdas(double x) {
  const auto checked = [](double v) {
    MILBACK_REQUIRE(v > 0.0, "v must be positive");
    return v;
  };
  const auto unchecked = [](double v) noexcept -> double { return 2.0 * v; };
  return checked(x) + unchecked(x);
}

}  // namespace milback::fix
