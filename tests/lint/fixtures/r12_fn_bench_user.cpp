// Staged under bench/: includes r12_fn_decls.hpp and names bench_gain_lin.
#include "milback/dsp/r12_fn_decls.hpp"

double bench_sample() { return milback::dsp::bench_gain_lin(1.5); }
