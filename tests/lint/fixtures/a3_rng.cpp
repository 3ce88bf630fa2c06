// Fixture: Rng::stream keyed only by loop-invariant ids inside a loop —
// every iteration draws the identical stream.
#include <cstdint>

#include "milback/util/rng.hpp"

namespace milback::fix {

double sum_trials(std::uint64_t seed, std::size_t n_trials) {
  double acc = 0.0;
  for (std::size_t trial = 0; trial < n_trials; ++trial) {
    auto rng = Rng::stream(seed, std::uint64_t{7});  // lint-expect: A3
    acc = rng.uniform(0.0, 1.0);
  }
  return acc;
}

}  // namespace milback::fix
