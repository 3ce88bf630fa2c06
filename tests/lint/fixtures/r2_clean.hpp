// Clean control for R2, staged under bench/fix/: a using-declaration names
// one thing and leaks nothing; `using namespace std;` in a comment is no code.
#pragma once

#include <vector>

namespace milback::fix {

using std::vector;

inline vector<int> r2_slots() { return {1, 2, 3}; }

}  // namespace milback::fix
