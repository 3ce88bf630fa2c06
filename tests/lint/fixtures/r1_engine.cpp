// Seeded R1 violations: raw std engines drawing simulation randomness outside
// util/rng. Each flagged line carries an expectation marker the fixture
// runner matches against the lint output.
#include <cstdint>
#include <random>

namespace milback::fix {

double jitter_m(std::uint64_t seed) {
  std::mt19937_64 engine(seed);  // lint-expect: R1
  return std::normal_distribution<double>(0.0, 0.01)(engine);
}

unsigned pick_slot(unsigned seed, unsigned slots) {
  std::minstd_rand engine(seed);  // lint-expect: R1
  return engine() % slots;
}

std::uint64_t mixed_draw(std::uint32_t seed) {
  std::default_random_engine a(seed);  // lint-expect: R1
  std::ranlux48 b(seed);  // lint-expect: R1
  std::mt19937 c(seed);  // lint-expect: R1
  return a() ^ b() ^ c();
}

}  // namespace milback::fix
