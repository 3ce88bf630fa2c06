// Clean control for R1: randomness drawn through milback::Rng, with engine
// names only in comments (std::mt19937_64), strings and other identifiers.
#include <cstdint>
#include <random>

#include "milback/util/rng.hpp"

namespace milback::fix {

double jitter_m(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, 1);
  return std::normal_distribution<double>(0.0, 0.01)(rng.engine());
}

const char* engine_name() { return "std::mt19937_64"; }

std::uint64_t draw(Rng::Engine& engine_mt19937_64) { return engine_mt19937_64(); }

}  // namespace milback::fix
