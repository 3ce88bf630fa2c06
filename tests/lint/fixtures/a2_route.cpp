// Fixture: an unordered_map route table iterated inside a function that
// fills a MeshReport — hash order would pick different next-hops run to run
// and leak straight into the deterministic mesh export.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace milback::fix {

struct MeshNodeReport {
  std::uint32_t node = 0;
  std::uint32_t next_hop = 0;
};

struct MeshReport {
  std::vector<MeshNodeReport> nodes;
};

MeshReport summarize_routes(
    const std::unordered_map<std::uint32_t, std::uint32_t>& next_hop_by_node) {
  MeshReport report;
  for (const auto& kv : next_hop_by_node) {  // lint-expect: A2
    report.nodes.push_back({kv.first, kv.second});
  }
  return report;
}

}  // namespace milback::fix
