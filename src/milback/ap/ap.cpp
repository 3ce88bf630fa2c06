#include "milback/ap/ap.hpp"

namespace milback::ap {

MilBackAp::MilBackAp(const ApConfig& config)
    : config_(config),
      localizer_(config.localizer),
      orientation_(config.localizer, config.orientation),
      downlink_(config.downlink),
      uplink_(config.uplink) {}

LocalizationResult MilBackAp::localize(const channel::BackscatterChannel& channel,
                                       const channel::NodePose& pose,
                                       milback::Rng& rng) const {
  return localizer_.localize(channel, pose, rng);
}

ApOrientationResult MilBackAp::sense_orientation(const channel::BackscatterChannel& channel,
                                                 const channel::NodePose& pose,
                                                 milback::Rng& rng) const {
  return orientation_.estimate(channel, pose, rng);
}

std::optional<CarrierSelection> MilBackAp::select_carriers(const antenna::DualPortFsa& fsa,
                                                           double orientation_deg) const {
  return ap::select_carriers(fsa, orientation_deg, config_.downlink.min_tone_separation_hz);
}

}  // namespace milback::ap
