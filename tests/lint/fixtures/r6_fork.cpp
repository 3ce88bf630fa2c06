// Seeded R6 violation, staged under bench/: a fork label computed from the
// sweep grid collides across points. A3 sees the same call through the
// declared Rng type.
#include <cstdint>

#include "milback/util/rng.hpp"

double trial_noise(std::uint64_t seed, int point, int trial) {
  milback::Rng master(seed);
  milback::Rng rng = master.fork(point * 1009 + trial);  // lint-expect: R6 lint-expect: A3
  return rng.uniform(0.0, 1.0);
}
