#include "milback/core/packet.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::core {

PacketTiming compute_timing(const PacketConfig& config, LinkDirection direction,
                            double symbol_rate_hz) {
  require_finite(symbol_rate_hz, "symbol_rate_hz");
  PacketTiming t;
  const auto& p = config.preamble;
  if (direction == LinkDirection::kUplink) {
    t.field1_s = double(p.field1_chirps_uplink) * p.field1.duration_s;
  } else {
    t.field1_s = double(p.field1_chirps_downlink) * p.field1.duration_s + p.field1_gap_s;
  }
  t.field2_s = double(p.field2_chirps) * p.field2.duration_s;
  t.payload_s = symbol_rate_hz > 0.0 ? double(config.payload_symbols) / symbol_rate_hz : 0.0;
  t.total_s = t.field1_s + t.field2_s + t.payload_s;
  return t;
}

std::vector<double> field1_chirp_starts(const PreambleConfig& config,
                                        LinkDirection direction) {
  std::vector<double> starts;
  const double T = require_positive(config.field1.duration_s, "field1.duration_s");
  if (direction == LinkDirection::kUplink) {
    for (std::size_t i = 0; i < config.field1_chirps_uplink; ++i) {
      starts.push_back(double(i) * T);
    }
  } else {
    // Downlink: first chirp, then the signalling gap, then the rest.
    starts.push_back(0.0);
    for (std::size_t i = 1; i < config.field1_chirps_downlink; ++i) {
      starts.push_back(double(i) * T + config.field1_gap_s);
    }
  }
  return starts;
}

std::optional<LinkDirection> detect_direction(const std::vector<double>& envelope_v,
                                              double fs, const PreambleConfig& config,
                                              double activity_threshold_rel) {
  require_positive(fs, "fs");
  require_unit_interval(activity_threshold_rel, "activity_threshold_rel");
  if (envelope_v.empty()) return std::nullopt;
  const double vmax = *std::max_element(envelope_v.begin(), envelope_v.end());
  if (vmax <= 0.0) return std::nullopt;
  const double threshold = vmax * activity_threshold_rel;

  // Find the active span and the longest quiet run inside it.
  std::ptrdiff_t first = -1, last = -1;
  for (std::size_t i = 0; i < envelope_v.size(); ++i) {
    if (envelope_v[i] > threshold) {
      if (first < 0) first = std::ptrdiff_t(i);
      last = std::ptrdiff_t(i);
    }
  }
  if (first < 0) return std::nullopt;

  std::size_t longest_quiet = 0, run = 0;
  for (std::ptrdiff_t i = first; i <= last; ++i) {
    if (envelope_v[std::size_t(i)] <= threshold) {
      ++run;
      longest_quiet = std::max(longest_quiet, run);
    } else {
      run = 0;
    }
  }

  // The uplink preamble's quiet runs top out just below one chirp duration
  // (between aligned-frequency crossings of consecutive chirps); the
  // downlink preamble inserts an extra gap of 1.5 chirps.
  const double gap_threshold_s = config.field1.duration_s * 1.15;
  const bool has_gap = double(longest_quiet) / fs > gap_threshold_s;
  return has_gap ? LinkDirection::kDownlink : LinkDirection::kUplink;
}

}  // namespace milback::core
