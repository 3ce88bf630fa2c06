// Seeded R5 violation, staged as src/milback/fix/: a line that begins with a
// block comment still carries code after it.
#include <thread>

namespace milback::fix {

void spawn_after_comment() {
  /* spawn */ std::thread t([] {});  // lint-expect: R5
  t.join();
}

}  // namespace milback::fix
