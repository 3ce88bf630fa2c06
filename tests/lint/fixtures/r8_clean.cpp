// Clean control for R8, staged as src/milback/fix/: slot loops, a loop
// variable that only contains the letters "round", and std::round outside
// any loop header.
#include <cmath>

namespace milback::fix {

int count_slots(int n_slots, double x) {
  int served = 0;
  for (int slot = 0; slot < n_slots; ++slot) served += slot;
  for (int surround_bins = 0; surround_bins < 2; ++surround_bins) served += 1;
  const double rounded = std::round(x);
  return served + static_cast<int>(rounded);
}

}  // namespace milback::fix
