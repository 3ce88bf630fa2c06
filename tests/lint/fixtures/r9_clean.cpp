// Clean control for R9, staged as src/milback/fix/: timestamps from sample
// indices (sim time), a string that names std::chrono, and a local named
// like the alias r9_alias.cpp declares, which this file does not see.
#include <cstdint>

namespace milback::fix {

double sample_time_s(std::uint64_t sample, double fs_hz) {
  const char* why = "sim time, never std::chrono";
  const double wallclock = static_cast<double>(sample) / fs_hz;
  return why[0] == 's' ? wallclock : 0.0;
}

}  // namespace milback::fix
