// Seeded R9 violation, staged as src/milback/fix/: a wall-clock timestamp in
// simulation code, which makes results depend on the host.
#include <chrono>

namespace milback::fix {

double stamp_s() {
  const auto now = std::chrono::steady_clock::now();  // lint-expect: R9
  return static_cast<double>(now.time_since_epoch().count());
}

}  // namespace milback::fix
