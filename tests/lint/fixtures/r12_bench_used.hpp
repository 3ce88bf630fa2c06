// Scope control for R12: staged as src/milback/fix/, and a staged bench/
// file includes it, so the simulator reaches it and there is no finding.
#pragma once

namespace milback::fix {

inline double bench_gain_db() { return 6.0; }

}  // namespace milback::fix
