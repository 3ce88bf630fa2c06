// Scope control for R1: tests keep std::mt19937_64 as the reference the
// milback::Rng engine is checked against, so no finding here.
#include <cstdint>
#include <random>

namespace milback::fix {

std::uint64_t reference_draw(std::uint64_t seed) {
  std::mt19937_64 reference(seed);
  return reference();
}

}  // namespace milback::fix
