// Staged as src/milback/fix/: a wall-clock alias in a header. Every file
// that includes this header sees the alias (r9_alias_user.cpp).
#pragma once

#include <chrono>

namespace milback::fix {

using host_clock = std::chrono::system_clock;  // lint-expect: R9

}  // namespace milback::fix
