// Staged under tests/: the only file that names probe_gain_lin.
#include "milback/dsp/r12_fn_decls.hpp"

double probe_sample() { return milback::dsp::probe_gain_lin(1.5); }
