// Staged under src/milback/cell/: accumulates through the `Acc` alias that
// a5_alias_double.hpp declares as double, so the sum is order-sensitive.
#include <cstddef>
#include <vector>

#include "milback/fix/a5_alias_double.hpp"

namespace milback::cell {

double total_power(const std::vector<double>& xs) {
  fix::Acc total = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    total += xs[i];  // lint-expect: A5
  }
  return total;
}

}  // namespace milback::cell
