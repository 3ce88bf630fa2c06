// Fixture: waiver behavior. The first accumulation is covered by a reasoned
// waiver and must NOT be reported; the second carries a reason-less waiver,
// which is itself a WAIVER finding (and the underlying A5 stays live because
// a reason-less waiver does not suppress).
#include <cstddef>
#include <vector>

namespace milback::cell {

double waived_sum(const std::vector<double>& xs) {
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // milback-analyze: no-reduction(fixture: fixed-order serial sum)
    acc += xs[i];
  }
  return acc;
}

double badly_waived_sum(const std::vector<double>& xs) {
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // milback-analyze: no-reduction lint-expect: WAIVER
    acc += xs[i];  // lint-expect: A5
  }
  return acc;
}

// A4 (clock/thread aliases) is now part of R5/R9, which take no waiver, so
// its key is unknown. milback-analyze: no-clock(retired key) lint-expect: WAIVER

}  // namespace milback::cell
