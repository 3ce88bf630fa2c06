// Staged under bench/: includes the src/milback/fix/ headers whose rule is
// not R12, so the simulator reaches each of them and R12 stays quiet.
#include "milback/fix/a1_api.hpp"
#include "milback/fix/clean.hpp"
#include "milback/fix/r3_clean.hpp"
#include "milback/fix/r3_units.hpp"
