// Clean control for R5, staged as src/milback/fix/: thread counts, the
// sanctioned this_thread namespace and a string that spells std::thread.
#include <thread>

namespace milback::fix {

unsigned worker_budget(unsigned hardware_threads) {
  const char* why = "parallel work goes through sim::TrialRunner, not std::thread";
  std::this_thread::yield();
  return why[0] == 'p' ? hardware_threads : 1u;
}

}  // namespace milback::fix
