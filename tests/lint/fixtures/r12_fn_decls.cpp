// Staged as src/milback/dsp/: the definitions name each function, which
// does not count as a use.
#include "milback/dsp/r12_fn_decls.hpp"

namespace milback::dsp {

double bench_gain_lin(double x) { return 2.0 * x; }

double probe_gain_lin(double x) { return 3.0 * x; }

}  // namespace milback::dsp
