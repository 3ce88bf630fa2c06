// Fixture: a fully-guarded public API — physics_lint must report nothing
// for this pair (negative control for the A checks).
#pragma once

#include <cstddef>
#include <vector>

namespace milback::fix {

/// Mean of the finite samples; the definition guards every scalar input.
double guarded_mean(const std::vector<double>& xs, double scale);

}  // namespace milback::fix
