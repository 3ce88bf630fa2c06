// Staged under tests/: the only includer of r12_tests_only.hpp.
#include "milback/fix/r12_tests_only.hpp"

namespace milback::fix {

double probe_twice_db() { return 2.0 * probe_gain_db(); }

}  // namespace milback::fix
