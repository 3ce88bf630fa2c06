// Seeded R2 violation, staged under bench/fix/: a using-directive in a
// header leaks the whole namespace into every file that includes it.
#pragma once

#include <vector>

using namespace std;  // lint-expect: R2

inline vector<int> r2_slots() { return {1, 2, 3}; }
