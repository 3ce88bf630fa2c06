// lint-expect: R12 -- staged as src/milback/fix/, and only a staged tests/ file includes it.
#pragma once

namespace milback::fix {

inline double probe_gain_db() { return 3.0; }

}  // namespace milback::fix
