// Clean control for R13, staged as src/milback/fix/: checks outside noexcept
// bodies, noexcept bodies without checks, and noexcept that ends a
// declaration or a function type.
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

}  // namespace milback::fix
