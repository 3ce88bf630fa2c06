// Staged under bench/: an includer outside tests/ for r12_bench_used.hpp.
#include "milback/fix/r12_bench_used.hpp"

namespace milback::fix {

double bench_twice_db() { return 2.0 * bench_gain_db(); }

}  // namespace milback::fix
