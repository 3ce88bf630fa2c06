#include "milback/baselines/van_atta.hpp"

#include <cmath>

#include "milback/antenna/array_factor.hpp"
#include "milback/core/contract.hpp"

namespace milback::baselines {

VanAttaArray::VanAttaArray(const VanAttaConfig& config) : config_(config) {
  require_nonzero(config_.n_elements, "n_elements");
  require_positive(config_.field_of_view_deg, "field_of_view_deg");
}

double VanAttaArray::aperture_gain_dbi(double incidence_deg) const {
  if (std::abs(incidence_deg) > config_.field_of_view_deg) return -20.0;
  return antenna::array_directivity_db(config_.n_elements) + config_.element_gain_dbi +
         antenna::element_pattern_db(incidence_deg, 1.3);
}

double VanAttaArray::retro_gain_db(double incidence_deg) const noexcept {
  return 2.0 * aperture_gain_dbi(incidence_deg) - config_.trace_loss_db;
}

}  // namespace milback::baselines
