// Fixture: a stream-mint wrapper (returns Rng by value) called inside a
// loop with a key that never varies per iteration — every iteration draws
// the identical stream. The keyed call in the same loop is the clean shape.
#include <cstdint>

#include "milback/util/rng.hpp"

namespace milback::fix {

class WrapperCell {
 public:
  double sweep(std::size_t n_nodes) const {
    double acc = 0.0;
    for (std::size_t node = 0; node < n_nodes; ++node) {
      auto bad = event_stream(std::uint64_t{3});  // lint-expect: A3
      acc = bad.uniform(0.0, 1.0);
      auto good = event_stream(std::uint64_t{node});
      acc += good.uniform(0.0, 1.0);
    }
    return acc;
  }

 private:
  Rng event_stream(std::uint64_t key) const { return Rng::stream(seed_, key); }

  std::uint64_t seed_ = 42;
};

}  // namespace milback::fix
