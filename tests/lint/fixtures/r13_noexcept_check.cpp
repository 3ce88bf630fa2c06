// Staged as src/milback/fix/: a contract check written directly in a
// noexcept body. Under the default handler the violation throws, and the
// throw out of a noexcept function calls std::terminate.
#include "milback/core/contract.hpp"

namespace milback::fix {

double checked_half(double x) noexcept {  // lint-expect: R13
  require_finite(x, "x");
  return 0.5 * x;
}

}  // namespace milback::fix
