// Clean control for A5, staged under src/milback/cell/: `Acc` is a file-local
// alias of long. The unrelated a5_alias_double.hpp declares the same name as
// double, but this file does not include it, so the sum is integral.
#include <cstddef>
#include <vector>

namespace milback::cell {

using Acc = long;

long total_count(const std::vector<long>& xs) {
  Acc acc = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc += xs[i];
  }
  return acc;
}

}  // namespace milback::cell
