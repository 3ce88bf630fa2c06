// Seeded R5 violations, staged as src/milback/fix/: raw threads outside the
// sim engine, where thread-count invariance is no longer provable.
#include <future>
#include <thread>

namespace milback::fix {

int spawn_worker() {
  int out = 0;
  std::thread worker([&out] { out = 1; });  // lint-expect: R5
  worker.join();
  auto later = std::async([] { return 2; });  // lint-expect: R5
  return out + later.get();
}

}  // namespace milback::fix
