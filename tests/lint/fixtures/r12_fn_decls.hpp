// Per-function R12, staged as src/milback/dsp/: a bench file includes this
// header and names bench_gain_lin, so only probe_gain_lin is a finding.
#pragma once

namespace milback::dsp {

double bench_gain_lin(double x);

double probe_gain_lin(double x);  // lint-expect: R12

}  // namespace milback::dsp
