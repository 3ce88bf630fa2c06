#include "milback/rf/horn_antenna.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::rf {

HornAntenna::HornAntenna(const HornAntennaConfig& config) : config_(config) {
  require_positive(config_.beamwidth_deg, "beamwidth_deg");
  require_finite(config_.boresight_gain_dbi, "boresight_gain_dbi");
}

double HornAntenna::gain_dbi(double offset_deg) const {
  require_finite(offset_deg, "offset_deg");
  // Gaussian main lobe: -3 dB at +-beamwidth/2.
  const double x = offset_deg / (config_.beamwidth_deg / 2.0);
  const double mainlobe = config_.boresight_gain_dbi - 3.0 * x * x;
  return std::max(mainlobe, config_.sidelobe_floor_dbi);
}

double HornAntenna::gain_linear(double offset_deg) const {
  return db2lin(gain_dbi(offset_deg));
}

}  // namespace milback::rf
