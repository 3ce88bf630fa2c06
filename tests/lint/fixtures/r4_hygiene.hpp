// lint-expect: R4 -- staged under bench/fix/: no `#pragma once` on top.
#include <vector>

#include "../fix/r4_clean.hpp"  // lint-expect: R4

inline std::vector<int> r4_slots() { return {1, 2}; }
