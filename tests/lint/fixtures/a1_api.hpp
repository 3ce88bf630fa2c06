// Fixture: public header API whose definition carries no contract.
// Placed under src/milback/fix/ by the runner; the marker line below is the
// declaration A1 must anchor to.
#pragma once

namespace milback::fix {

double attenuate_db(double level_db, double loss_db);  // lint-expect: A1

}  // namespace milback::fix
