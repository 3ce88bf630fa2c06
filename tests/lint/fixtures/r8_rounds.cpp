// Seeded R8 violations, staged as src/milback/fix/: hand-rolled round loops
// outside the discrete-event cell engine.
namespace milback::fix {

int serve_rounds(int n_rounds, int n_nodes) {
  int served = 0;
  for (int round = 0; round < n_rounds; ++round) {  // lint-expect: R8
    served += n_nodes;
  }
  int rounds_left = 3;
  while (rounds_left > 0) {  // lint-expect: R8
    --rounds_left;
    served += 1;
  }
  return served;
}

}  // namespace milback::fix
