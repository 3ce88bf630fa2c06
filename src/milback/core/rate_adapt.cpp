#include "milback/core/rate_adapt.hpp"

#include "milback/core/contract.hpp"

namespace milback::core {

double service_rate_bps(const RateAdaptConfig& config, double snr_db) {
  require_finite(snr_db, "snr_db");
  if (snr_db >= config.snr_for_40mbps_db) return 40e6;
  if (snr_db >= config.snr_for_10mbps_db) return 10e6;
  return 0.0;
}

RateDecision adapt_rate(const RateAdaptConfig& config, double snr_db) {
  require_finite(snr_db, "snr_db");
  if (snr_db >= config.snr_for_40mbps_db) {
    return {40e6, snr_db < config.snr_for_40mbps_db + config.fec_margin_db};
  }
  if (snr_db >= config.snr_for_10mbps_db) {
    return {10e6, snr_db < config.snr_for_10mbps_db + config.fec_margin_db};
  }
  // Below the raw-10 Mbps threshold: keep trying at 10 Mbps with FEC.
  return {10e6, true};
}

}  // namespace milback::core
