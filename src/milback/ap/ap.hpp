// The MilBack access point facade: owns the four processing engines
// (localizer, orientation sensor, downlink transmitter, uplink receiver) and
// exposes the operations the protocol layer composes. The AP's RF hardware
// (VXG + PA + horns, LNA -> mixer -> BPF -> scope) enters the simulation as
// link-budget terms in channel::ChannelConfig, not as objects here.
#pragma once

#include "milback/ap/downlink_transmitter.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/ap/orientation_sensor.hpp"
#include "milback/ap/uplink_receiver.hpp"

namespace milback::ap {

/// Full AP configuration.
struct ApConfig {
  LocalizerConfig localizer{};            ///< Field 2, for both estimates.
  OrientationSensorConfig orientation{};
  DownlinkTxConfig downlink{};
  UplinkRxConfig uplink{};
};

/// The MilBack access point.
class MilBackAp {
 public:
  /// Assembles the AP.
  explicit MilBackAp(const ApConfig& config = {});

  /// Localizes the node (range + angle) via the five-chirp Field-2 burst.
  LocalizationResult localize(const channel::BackscatterChannel& channel,
                              const channel::NodePose& pose, milback::Rng& rng) const;

  /// Estimates the node's orientation from its reflection spectrum in a
  /// Field-2 burst of its own.
  ApOrientationResult sense_orientation(const channel::BackscatterChannel& channel,
                                        const channel::NodePose& pose,
                                        milback::Rng& rng) const;

  /// Picks the OAQFM carriers for an orientation estimate.
  std::optional<CarrierSelection> select_carriers(const antenna::DualPortFsa& fsa,
                                                  double orientation_deg) const;

  /// Engine access.
  const Localizer& localizer() const noexcept { return localizer_; }
  const ApOrientationSensor& orientation_sensor() const noexcept { return orientation_; }
  const DownlinkTransmitter& downlink() const noexcept { return downlink_; }
  const UplinkReceiver& uplink() const noexcept { return uplink_; }
  const ApConfig& config() const noexcept { return config_; }

 private:
  ApConfig config_;
  Localizer localizer_;
  ApOrientationSensor orientation_;
  DownlinkTransmitter downlink_;
  UplinkReceiver uplink_;
};

}  // namespace milback::ap
