// Fixture: unordered_map iteration inside a function that feeds a report
// sink (CsvWriter) — hash order would leak into deterministic output.
#include <string>
#include <unordered_map>
#include <vector>

#include "milback/util/csv.hpp"

namespace milback::fix {

void export_cell_rows(const std::string& dir) {
  milback::CsvWriter csv(dir, "cell_goodput", {"node", "goodput_bps"});
  std::unordered_map<std::string, double> goodput_by_node;
  goodput_by_node["n0"] = 1.0;
  for (const auto& kv : goodput_by_node) {  // lint-expect: A2
    csv.row({kv.second});
  }
}

}  // namespace milback::fix
