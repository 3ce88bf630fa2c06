/* Clean control for R4, staged under bench/fix/: comments may precede
 * `#pragma once`, and includes name paths from an include root, never
 * `#include "../x.hpp"`. */
// One more comment line before the guard.
#pragma once

#include <vector>

#include "milback/util/units.hpp"

inline std::vector<int> r4_clean_slots() { return {1, 2}; }
