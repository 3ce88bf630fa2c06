// Clean control for R6, staged under bench/: per-trial generators keyed by
// Rng::stream, and a fork with a constant label.
#include <cstdint>

#include "milback/util/rng.hpp"

double trial_noise_keyed(std::uint64_t seed, int point, int trial) {
  milback::Rng rng = milback::Rng::stream(seed, point, trial);
  milback::Rng child = rng.fork(7);
  return child.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0);
}
