// Traced breakdown of the AP localization pipeline, shared by link_office
// and loc_nlos: one row per stage of Localizer::localize, each stage timed
// by calling its public function on bursts synthesized for the workload's
// own poses. Per-operation calls come from the localizer's trace spans
// (one ap.synthesize_burst / ap.range_fft / ap.background_subtract /
// ap.cfar / ap.aoa span per pipeline pass) and the channel's path counters.
#include <cmath>

#include "e2e.hpp"
#include "milback/ap/localizer.hpp"

namespace e2e {

using milback::Rng;
using milback::antenna::FsaPort;

void localizer_rows(const milback::channel::BackscatterChannel& channel,
                    const milback::ap::Localizer& localizer,
                    const std::vector<milback::channel::NodePose>& poses, double ops,
                    const std::string& parent, double budget_s, Result& result) {
  namespace radar = milback::radar;
  const auto& cfg = localizer.config();
  std::vector<milback::rf::SwitchState> states(cfg.n_chirps);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = i % 2 == 0 ? milback::rf::SwitchState::kReflect
                           : milback::rf::SwitchState::kAbsorb;
  }

  // Stage inputs: one burst per pose and its downstream products.
  struct Stage {
    milback::ap::Localizer::BurstPair burst;
    std::vector<radar::RangeSpectrum> spectra0, spectra1;
    radar::SubtractionResult sub0, sub1;
    std::size_t bin = 0;
    double f_node_hz = 0.0;
  };
  // Layer timing draws noise from its own fixed generator; the draws only
  // have to be realistic, not match the traced repetition.
  Rng rng(0x6c61796572ULL);
  std::vector<Stage> stages;
  std::vector<std::vector<radar::cplx>> beats;
  for (const auto& pose : poses) {
    Stage s;
    s.burst = localizer.synthesize_burst(channel, pose, states, 1.0, pose.azimuth_deg, rng);
    for (std::size_t c = 0; c < s.burst.rx0.size(); ++c) {
      s.spectra0.push_back(
          radar::range_fft(s.burst.rx0[c], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
      s.spectra1.push_back(
          radar::range_fft(s.burst.rx1[c], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
      beats.push_back(s.burst.rx0[c]);
    }
    s.sub0 = radar::background_subtract(s.spectra0);
    s.sub1 = radar::background_subtract(s.spectra1);
    const auto det = radar::estimate_range(s.sub0, s.spectra0.front(), cfg.range);
    s.bin = det ? std::size_t(std::llround(det->bin)) : 0;
    s.f_node_hz = channel.fsa()
                      .beam_frequency_hz(FsaPort::kA, pose.orientation_deg)
                      .value_or(cfg.chirp.center_frequency_hz());
    stages.push_back(std::move(s));
  }
  const std::size_t n = poses.size();

  const double passes = span_count("ap.synthesize_burst") / ops;
  const double ffts = span_count("ap.range_fft") * 2.0 * double(cfg.n_chirps) / ops;
  const double subtracts = span_count("ap.background_subtract") * 2.0 / ops;
  const double cfars = span_count("ap.cfar") / ops;
  const double aoas = span_count("ap.aoa") / ops;
  // Path-set calls: the counters add up paths over calls; the poses give the
  // paths per call.
  std::size_t paths = 0;
  for (const auto& pose : poses) paths += channel.node_path_set(pose).paths.size();
  const double path_sets = (result.metrics.at("channel.paths_active.per_op") +
                            result.metrics.at("channel.blockage_sever.per_op")) *
                           double(n) / double(paths);

  auto& rows = result.layers;
  rows.push_back({"ap.synthesize_burst", parent, passes,
                  time_per_call_ms(n, budget_s, [&](std::size_t k) {
                    const auto b = localizer.synthesize_burst(channel, poses[k], states, 1.0,
                                                              poses[k].azimuth_deg, rng);
                    return double(b.rx0.size());
                  })});
  rows.push_back({"channel.modulated_returns", "ap.synthesize_burst", passes,
                  time_per_call_ms(n, budget_s, [&](std::size_t k) {
                    return channel
                        .modulated_returns(FsaPort::kA, stages[k].f_node_hz, poses[k], 1.0)
                        .front()
                        .power_w;
                  })});
  rows.push_back({"channel.clutter_returns", "ap.synthesize_burst", passes,
                  time_per_call_ms(n, budget_s, [&](std::size_t k) {
                    return double(
                        channel.clutter_returns(cfg.chirp.center_frequency_hz(), poses[k])
                            .size());
                  })});
  rows.push_back({"channel.node_path_set", "ap.synthesize_burst", path_sets,
                  path_sets > 0.0 ? time_per_call_ms(n, budget_s,
                                                     [&](std::size_t k) {
                                                       return double(channel
                                                                         .node_path_set(poses[k])
                                                                         .paths.size());
                                                     })
                                  : 0.0});
  rows.push_back({"radar.range_fft", parent, ffts,
                  time_per_call_ms(beats.size(), budget_s, [&](std::size_t k) {
                    return radar::range_fft(beats[k], cfg.beat_sample_rate_hz, cfg.chirp,
                                            cfg.fft)
                        .fs;
                  })});
  rows.push_back({"radar.background_subtract", parent, subtracts,
                  time_per_call_ms(n, budget_s, [&](std::size_t k) {
                    return double(radar::background_subtract(stages[k].spectra0).pairs);
                  })});
  rows.push_back({"radar.estimate_range", parent, cfars,
                  time_per_call_ms(n, budget_s, [&](std::size_t k) {
                    const auto det = radar::estimate_range(stages[k].sub0,
                                                           stages[k].spectra0.front(), cfg.range);
                    return det ? det->range_m : 0.0;
                  })});
  rows.push_back({"radar.estimate_offset_deg", parent, aoas,
                  time_per_call_ms(n, budget_s, [&](std::size_t k) {
                    const auto& s = stages[k];
                    return radar::estimate_offset_deg(s.sub0.first_difference[s.bin],
                                                      s.sub1.first_difference[s.bin], cfg.aoa)
                        .value_or(0.0);
                  })});
}

}  // namespace e2e
