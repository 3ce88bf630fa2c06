// Fixture: wall clock and a raw thread reached through aliases outside obs/
// and sim/. The uses below the alias lines spell neither std:: name.
#include <chrono>

namespace milback::fix {

using wallclock = std::chrono::steady_clock;  // lint-expect: R9
using worker = std::thread;  // lint-expect: R5

double stamp_s() {
  const auto now = wallclock::now();  // lint-expect: R9
  return static_cast<double>(now.time_since_epoch().count());
}

void spawn() {
  worker w([] {});  // lint-expect: R5
  w.join();
}

}  // namespace milback::fix
