// Staged as src/milback/fix/: uses the alias r9_alias.hpp declares, a line
// that spells no std::chrono.
#include "milback/fix/r9_alias.hpp"

namespace milback::fix {

long long host_ticks() {
  return host_clock::now().time_since_epoch().count();  // lint-expect: R9
}

}  // namespace milback::fix
