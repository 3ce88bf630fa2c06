#include "milback/ap/beam_scanner.hpp"

#include <algorithm>
#include <cmath>

#include "milback/channel/link_budget.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::ap {

BeamScanner::BeamScanner(const BeamScanConfig& config) : config_(config) {}

std::size_t BeamScanner::grid_size() const noexcept {
  if (config_.step_deg <= 0.0 || config_.max_azimuth_deg <= config_.min_azimuth_deg) {
    return 0;
  }
  return std::size_t((config_.max_azimuth_deg - config_.min_azimuth_deg) /
                     config_.step_deg) +
         1;
}

double BeamScanner::steered_snr_db(const channel::BackscatterChannel& channel,
                                   const channel::NodePose& pose,
                                   double steering_deg) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  rf::RfSwitch sw{config_.localizer.node_switch};
  const auto budget = channel::compute_radar_budget(
      channel, pose, sw, config_.localizer.chirp.duration_s,
      config_.localizer.beat_sample_rate_hz);
  // compute_radar_budget assumes boresight pointing; subtract the TX and RX
  // horn rolloff at the actual steering offset.
  const double offset = pose.azimuth_deg - steering_deg;
  const auto& tx = channel.ap_tx_antenna();
  const auto& rx = channel.ap_rx_antenna();
  const double rolloff = (tx.config().boresight_gain_dbi - tx.gain_dbi(offset)) +
                         (rx.config().boresight_gain_dbi - rx.gain_dbi(offset));
  return budget.snr_db - rolloff;
}

std::vector<ScanDetection> BeamScanner::scan(const channel::BackscatterChannel& channel,
                                             const std::vector<channel::NodePose>& nodes,
                                             milback::Rng& rng) const {
  require_positive(config_.step_deg, "step_deg");
  struct GridHit {
    double steering = 0.0;
    double snr_db = -1e9;
    std::size_t node = 0;
  };

  // Pass 1: budget SNR of the strongest node at every steering position.
  std::vector<GridHit> hits;
  for (double steer = config_.min_azimuth_deg; steer <= config_.max_azimuth_deg + 1e-9;
       steer += config_.step_deg) {
    GridHit h;
    h.steering = steer;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      const double snr = steered_snr_db(channel, nodes[n], steer);
      if (snr > h.snr_db) {
        h.snr_db = snr;
        h.node = n;
      }
    }
    if (h.snr_db >= config_.detection_snr_db) hits.push_back(h);
  }

  // Pass 2: merge runs of adjacent hits that point at the same node, keep
  // the strongest steering of each run.
  std::vector<ScanDetection> detections;
  const Localizer localizer(config_.localizer);
  std::size_t i = 0;
  while (i < hits.size()) {
    std::size_t j = i;
    GridHit best = hits[i];
    while (j + 1 < hits.size() &&
           hits[j + 1].steering - hits[j].steering < 1.5 * config_.step_deg &&
           hits[j + 1].node == hits[i].node) {
      ++j;
      if (hits[j].snr_db > best.snr_db) best = hits[j];
    }
    ScanDetection det;
    det.steering_deg = best.steering;
    det.predicted_snr_db = best.snr_db;
    det.fix = localizer.localize(channel, nodes[best.node], rng);
    detections.push_back(det);
    i = j + 1;
  }
  return detections;
}

}  // namespace milback::ap
