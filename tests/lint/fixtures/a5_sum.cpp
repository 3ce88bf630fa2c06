// Fixture: order-sensitive double accumulation in a loop inside the
// reduction-scoped cell layer (runner places this under src/milback/cell/).
#include <cstddef>
#include <vector>

namespace milback::cell {

double aggregate_goodput(const std::vector<double>& per_node_bps) {
  double total_bps = 0.0;
  for (std::size_t i = 0; i < per_node_bps.size(); ++i) {
    total_bps += per_node_bps[i];  // lint-expect: A5
  }
  return total_bps;
}

}  // namespace milback::cell
