// Staged as src/milback/fix/: a floating-point accumulator alias. Only the
// files that include this header see it (a5_alias_user.cpp).
#pragma once

namespace milback::fix {

using Acc = double;

}  // namespace milback::fix
