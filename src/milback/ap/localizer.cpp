#include "milback/ap/localizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "milback/channel/propagation.hpp"
#include "milback/core/contract.hpp"
#include "milback/obs/registry.hpp"
#include "milback/obs/span.hpp"
#include "milback/util/units.hpp"

namespace milback::ap {

namespace {

// Localization-pipeline telemetry. Spans live on the SAMPLE-INDEX timeline
// (beat sample 0 .. n_chirps * samples_per_chirp), one subtrack per stage —
// a deterministic clock, unlike wall time.
struct LocObs {
  obs::Counter calls, detections, nlos_fallback;
  obs::Histogram detection_snr_db;
  std::uint32_t synth_span = 0, fft_span = 0, subtract_span = 0, cfar_span = 0,
                aoa_span = 0, nlos_span = 0;
};

const LocObs& loc_obs() {
  static const LocObs instance = [] {
    auto& r = obs::Registry::global();
    LocObs o;
    o.calls = r.counter("ap.localize.calls");
    o.detections = r.counter("ap.localize.detections");
    o.nlos_fallback = r.counter("loc.nlos_fallback");
    o.detection_snr_db =
        r.histogram("ap.detection_snr_db", obs::HistogramSpec{0.25, 1.15, 50});
    o.synth_span = r.trace_name("ap.synthesize_burst");
    o.fft_span = r.trace_name("ap.range_fft");
    o.subtract_span = r.trace_name("ap.background_subtract");
    o.cfar_span = r.trace_name("ap.cfar");
    o.aoa_span = r.trace_name("ap.aoa");
    // Spans carry no attributes, so the "nlos" tag is its own trace name:
    // a fix is NLoS iff an ap.localize.nlos span encloses its aoa stage.
    o.nlos_span = r.trace_name("ap.localize.nlos");
    return o;
  }();
  return instance;
}

using antenna::FsaPort;
using channel::BackscatterChannel;
using channel::NodePose;

// FSA reflection envelope across the chirp: the node only reflects while the
// sweep crosses its aligned beam. Returns per-sample amplitude scale in
// [0, 1] relative to the aligned-frequency peak.
std::vector<double> fsa_sweep_envelope(const BackscatterChannel& channel,
                                       const NodePose& pose,
                                       const radar::ChirpConfig& chirp, double fs,
                                       std::size_t n) {
  std::vector<double> env(n, 0.0);
  const auto& fsa = channel.fsa();
  // Round-trip through the FSA: amplitude scales with the (power) gain at
  // the instantaneous frequency, normalized by the best in-band gain.
  const auto f_peak = fsa.beam_frequency_hz(FsaPort::kA, pose.orientation_deg);
  const double g_peak = f_peak ? fsa.gain_linear(FsaPort::kA, *f_peak, pose.orientation_deg)
                               : fsa.gain_linear(FsaPort::kA, chirp.center_frequency_hz(),
                                                 pose.orientation_deg);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = chirp.frequency_at(double(i) / fs);
    const double g = fsa.gain_linear(FsaPort::kA, f, pose.orientation_deg);
    env[i] = std::min(g / std::max(g_peak, 1e-12), 1.0);  // two-way handled in power
  }
  return env;
}

}  // namespace

Localizer::Localizer(const LocalizerConfig& config) : config_(config) {
  require_positive(config_.beat_sample_rate_hz, "beat_sample_rate_hz");
  MILBACK_REQUIRE(config_.n_chirps >= 2,
                  "Localizer: background subtraction needs >= 2 chirps");
  require_positive(config_.chirp.bandwidth_hz, "chirp.bandwidth_hz");
  require_positive(config_.chirp.duration_s, "chirp.duration_s");
  require_positive(config_.chirp.start_frequency_hz, "chirp.start_frequency_hz");
  require_non_negative(config_.slope_error_rms, "slope_error_rms");
}

Localizer::BurstPair Localizer::synthesize_burst(
    const BackscatterChannel& channel, const NodePose& pose,
    const std::vector<rf::SwitchState>& port_a_states, double true_slope_scale,
    double steered_azimuth_deg, milback::Rng& rng, bool steer_amplitudes,
    std::size_t rx1_chirps) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const double fs = config_.beat_sample_rate_hz;
  // The synthesis chirp carries the (slightly wrong) true slope; the
  // estimator later assumes the nominal slope -> distance-proportional bias.
  radar::ChirpConfig true_chirp = config_.chirp;
  true_chirp.bandwidth_hz *= true_slope_scale;
  const std::size_t n = radar::samples_per_chirp(true_chirp, fs);

  rf::RfSwitch node_switch(config_.node_switch);
  const auto aligned =
      channel.fsa().beam_frequency_hz(FsaPort::kA, pose.orientation_deg);
  const double f_node = aligned.value_or(config_.chirp.center_frequency_hz());

  // Per-trial fixed randomness.
  const double aoa_true_offset = pose.azimuth_deg - steered_azimuth_deg;
  const double aoa_phase =
      radar::offset_to_phase_rad(aoa_true_offset, config_.aoa) +
      rng.gaussian(0.0, config_.aoa.calibration_sigma_rad);
  const double mirror_phase = rng.phase();

  // Mirror reflection strength (specular collision region, Fig 13b).
  const double inc = (pose.orientation_deg - config_.mirror.incidence_peak_deg) /
                     config_.mirror.incidence_width_deg;
  const double mirror_gate = std::exp(-inc * inc);
  const double p_mirror_dbm = channel::radar_return_dbm(
      channel.config().tx_power_dbm, channel.ap_tx_antenna().config().boresight_gain_dbi,
      channel.ap_rx_antenna().config().boresight_gain_dbi,
      config_.mirror.rcs_m2 * mirror_gate, pose.distance_m,
      config_.chirp.center_frequency_hz());
  // The mirror reflection rides the same geometric corridor as the direct
  // return, so blockage (and any blocker crossing the direct ray) attenuates
  // it identically — otherwise its modulation leakage would keep the node
  // "detectable" straight through a severed path. One path set per burst
  // serves the mirror and the modulated returns.
  const auto paths = channel.node_path_set(pose);
  double direct_extra_loss_db = 2.0 * channel.config().blockage_loss_db +
                                2.0 * paths.direct().blocker_loss_db;
  if (steer_amplitudes) {
    // A burst genuinely steered off the node bearing: the mirror sits on the
    // node's corridor and pays the two-way off-steer pattern penalty.
    direct_extra_loss_db +=
        2.0 * (channel.ap_tx_antenna().config().boresight_gain_dbi -
               channel.ap_tx_antenna().gain_dbi(pose.azimuth_deg -
                                                steered_azimuth_deg));
  }
  const double a_mirror = std::sqrt(dbm2watt(
      p_mirror_dbm - channel.config().implementation_loss_two_way_db -
      direct_extra_loss_db));

  const auto clutter = channel.clutter_returns(config_.chirp.center_frequency_hz(), pose);
  const auto env = fsa_sweep_envelope(channel, pose, true_chirp, fs, n);
  const double noise_w = channel.ap_noise_floor_w(fs);

  // Build the two path lists once; only the state-dependent amplitudes and
  // the per-chirp clutter drift change inside the burst loop. Backscatter
  // power is linear in the reflection coefficient, so the node and echo
  // paths are queried at unit reflection and rescaled per chirp — this
  // hoists the path-geometry query and the per-sample FSA envelope copies
  // out of the per-chirp loop. `modulated_returns` is the unified PathSet
  // query: entry 0 is the direct return (blocker-severed when a blocker
  // crosses it), the rest are clutter-bounce ghosts and wall echoes.
  const auto returns = channel.modulated_returns(
      FsaPort::kA, f_node, pose, paths, 1.0,
      steer_amplitudes ? std::optional<double>(steered_azimuth_deg) : std::nullopt);
  const double p_node_unit_w = returns.front().power_w;
  const std::vector<channel::ReturnPath> ghosts(returns.begin() + 1, returns.end());

  std::vector<radar::PathContribution> paths0, paths1;
  paths0.reserve(2 + ghosts.size() + clutter.size());
  paths1.reserve(2 + ghosts.size() + clutter.size());

  // Node return through port A (port B absorbs throughout Field 2).
  radar::PathContribution node_path;
  node_path.delay_s = channel::round_trip_delay_s(pose.distance_m);
  node_path.envelope = env;
  paths0.push_back(node_path);
  node_path.extra_phase_rad = aoa_phase;
  paths1.push_back(std::move(node_path));

  // Mirror reflection: static part + switching-correlated leakage.
  radar::PathContribution mirror_path;
  mirror_path.delay_s = channel::round_trip_delay_s(pose.distance_m);
  mirror_path.extra_phase_rad = mirror_phase;
  paths0.push_back(mirror_path);
  mirror_path.extra_phase_rad = mirror_phase + aoa_phase;
  paths1.push_back(mirror_path);

  // Multipath ghosts of the node's return: modulated like the node itself,
  // so they survive subtraction and appear as weaker, longer-range targets.
  for (const auto& g : ghosts) {
    radar::PathContribution gp;
    gp.delay_s = g.delay_s;
    gp.envelope = env;
    paths0.push_back(gp);
    const double g_offset = g.azimuth_deg - steered_azimuth_deg;
    gp.extra_phase_rad = radar::offset_to_phase_rad(g_offset, config_.aoa);
    paths1.push_back(std::move(gp));
  }

  // Static clutter: delays and AoA phases are burst-constant, the
  // chirp-to-chirp drift (which limits subtraction depth) is drawn per chirp.
  std::vector<double> clutter_aoa_phase_rad;
  clutter_aoa_phase_rad.reserve(clutter.size());
  for (const auto& c : clutter) {
    radar::PathContribution cp;
    cp.delay_s = c.delay_s;
    paths0.push_back(cp);
    paths1.push_back(cp);
    clutter_aoa_phase_rad.push_back(
        radar::offset_to_phase_rad(c.azimuth_deg - steered_azimuth_deg, config_.aoa));
  }

  BurstPair burst;
  burst.rx0.reserve(port_a_states.size());
  burst.rx1.reserve(std::min(rx1_chirps, port_a_states.size()));

  const std::size_t clutter_base = 2 + ghosts.size();
  for (std::size_t chirp = 0; chirp < port_a_states.size(); ++chirp) {
    const auto state = port_a_states[chirp];
    const double refl = node_switch.reflection_power(state);
    const double a_node = std::sqrt(p_node_unit_w * refl);
    paths0[0].amplitude = a_node;
    paths1[0].amplitude = a_node;

    const double mod = state == rf::SwitchState::kReflect
                           ? config_.mirror.modulation_leakage
                           : -config_.mirror.modulation_leakage;
    paths0[1].amplitude = a_mirror * (1.0 + mod);
    paths1[1].amplitude = paths0[1].amplitude;

    for (std::size_t g = 0; g < ghosts.size(); ++g) {
      const double a_ghost = std::sqrt(ghosts[g].power_w * refl);
      paths0[2 + g].amplitude = a_ghost;
      paths1[2 + g].amplitude = a_ghost;
    }

    for (std::size_t c = 0; c < clutter.size(); ++c) {
      const double drift_a = 1.0 + rng.gaussian(0.0, channel.config().chirp_amplitude_drift);
      const double drift_p = rng.gaussian(0.0, channel.config().chirp_phase_drift_rad);
      const double a_clutter = std::sqrt(clutter[c].power_w) * drift_a;
      paths0[clutter_base + c].amplitude = a_clutter;
      paths1[clutter_base + c].amplitude = a_clutter;
      paths0[clutter_base + c].extra_phase_rad = drift_p;
      paths1[clutter_base + c].extra_phase_rad = drift_p + clutter_aoa_phase_rad[c];
    }

    burst.rx0.push_back(
        radar::synthesize_beat(paths0, true_chirp, fs, n, noise_w, rng));
    if (chirp < rx1_chirps) {
      burst.rx1.push_back(
          radar::synthesize_beat(paths1, true_chirp, fs, n, noise_w, rng));
    } else if (noise_w > 0.0) {
      rng.discard_complex_gaussian(n);  // the skipped beat's noise draws
    }
  }
  return burst;
}

LocalizationResult Localizer::localize(const BackscatterChannel& channel,
                                       const NodePose& pose, milback::Rng& rng,
                                       ChirpBeats* rx0_sink) const {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  LocalizationResult result;
  result.steered_azimuth_deg =
      pose.azimuth_deg + rng.gaussian(0.0, channel.config().steering_error_sigma_deg);
  const double slope_scale = 1.0 + rng.gaussian(0.0, config_.slope_error_rms);

  // Field 2 modulation: the node toggles port A each chirp.
  std::vector<rf::SwitchState> states(config_.n_chirps);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = (i % 2 == 0) ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
  }

  loc_obs().calls.add();
  const double burst_samples =
      double(radar::samples_per_chirp(config_.chirp, config_.beat_sample_rate_hz)) *
      double(config_.n_chirps);

  // One full synthesize -> FFT -> subtract -> CFAR -> AoA pipeline pass.
  // The reflector-aware mode runs it twice: once steered at the node and,
  // when a wall echo should dominate, once re-steered at the wall bearing.
  struct PassResult {
    bool detected = false;
    double range_m = 0.0;
    double snr_db = 0.0;
    std::optional<double> aoa_offset_deg;
    double angle_deg = 0.0;
  };
  const auto run_pass = [&](double steer_deg, bool steer_amplitudes,
                            ChirpBeats* beats_sink) {
    PassResult pass;
    obs::Span synth_span(loc_obs().synth_span, 0.0,
                         obs::trace_lane(obs::kLaneLocalizer, 0));
    // AoA reads only RX1's first chirp pair.
    auto burst = synthesize_burst(channel, pose, states, slope_scale, steer_deg, rng,
                                  steer_amplitudes, /*rx1_chirps=*/2);
    synth_span.end(burst_samples);

    obs::Span fft_span(loc_obs().fft_span, 0.0,
                       obs::trace_lane(obs::kLaneLocalizer, 1));
    std::vector<radar::RangeSpectrum> spectra0, spectra1;
    for (const auto& beat : burst.rx0) {
      spectra0.push_back(
          radar::range_fft(beat, config_.beat_sample_rate_hz, config_.chirp, config_.fft));
    }
    for (const auto& beat : burst.rx1) {
      spectra1.push_back(
          radar::range_fft(beat, config_.beat_sample_rate_hz, config_.chirp, config_.fft));
    }
    fft_span.end(burst_samples);
    if (beats_sink != nullptr) *beats_sink = std::move(burst.rx0);

    obs::Span subtract_span(loc_obs().subtract_span, 0.0,
                            obs::trace_lane(obs::kLaneLocalizer, 2));
    const auto sub0 = radar::background_subtract(spectra0);
    subtract_span.end(burst_samples);

    const double n_bins = double(sub0.first_difference.size());
    obs::Span cfar_span(loc_obs().cfar_span, 0.0,
                        obs::trace_lane(obs::kLaneLocalizer, 3));
    const auto det = radar::estimate_range(sub0, spectra0.front(), config_.range);
    cfar_span.end(n_bins);
    if (!det) return pass;

    pass.detected = true;
    pass.range_m = det->range_m;
    pass.snr_db = det->snr_db;

    // Angle: phase of the first difference spectrum at the detected bin,
    // across the two RX antennas.
    const auto bin = std::size_t(std::llround(det->bin));
    if (bin < sub0.first_difference.size()) {
      obs::Span aoa_span(loc_obs().aoa_span, double(bin),
                         obs::trace_lane(obs::kLaneLocalizer, 4));
      pass.aoa_offset_deg = radar::estimate_offset_deg(
          sub0.first_difference[bin], spectra1[1].bins[bin] - spectra1[0].bins[bin],
          config_.aoa);
      aoa_span.end(double(bin + 1));
    }
    pass.angle_deg = steer_deg + pass.aoa_offset_deg.value_or(0.0);
    return pass;
  };

  const PassResult first = run_pass(result.steered_azimuth_deg,
                                    /*steer_amplitudes=*/false, rx0_sink);
  if (first.detected) {
    result.detected = true;
    result.range_m = first.range_m;
    result.detection_snr_db = first.snr_db;
    result.aoa_offset_deg = first.aoa_offset_deg;
    result.angle_deg = first.angle_deg;
  }

  // Reflector-aware NLoS fallback (N2LoS): when a wall echo re-steered at
  // full horn gain would dominate the blocked direct return, fire a second
  // burst at the wall bearing. The detected peak there IS the double-bounce
  // echo — its range is the one-way indirect path length and its AoA points
  // at the wall, so unfolding the specular image recovers the node position.
  if (config_.reflector_aware) {
    const auto aligned =
        channel.fsa().beam_frequency_hz(FsaPort::kA, pose.orientation_deg);
    const double f_node = aligned.value_or(config_.chirp.center_frequency_hz());
    const auto ps = channel.node_path_set(pose);
    const double direct_blocker_db = ps.direct().blocker_loss_db;
    const channel::PropPath* strongest = nullptr;
    double best_advantage_db = config_.nlos_margin_db;
    for (const auto& p : ps.paths) {
      if (p.bounces == 0 || p.severed()) continue;
      const double advantage_db = channel.indirect_return_advantage_db(
          FsaPort::kA, f_node, pose, p, direct_blocker_db,
          /*horn_steer_azimuth_deg=*/p.aoa_deg);
      if (advantage_db > best_advantage_db) {
        best_advantage_db = advantage_db;
        strongest = &p;
      }
    }
    if (strongest != nullptr && strongest->wall >= 0) {
      const double steer2_deg =
          strongest->aoa_deg +
          rng.gaussian(0.0, channel.config().steering_error_sigma_deg);
      const PassResult echo = run_pass(steer2_deg, /*steer_amplitudes=*/true,
                                       /*beats_sink=*/nullptr);
      if (echo.detected) {
        // The detected range is the echo's one-way path length. Its bearing
        // is measured when it falls inside the interferometer's unambiguous
        // window around the predicted wall bearing; otherwise the surveyed
        // wall map resolves the phase-wrap ambiguity.
        const double half_deg = radar::unambiguous_halfwidth_deg(config_.aoa);
        const double bearing_deg =
            std::abs(echo.angle_deg - strongest->aoa_deg) <= half_deg
                ? echo.angle_deg
                : strongest->aoa_deg;
        double nx = 0.0, ny = 0.0;
        const auto& wall =
            channel.multipath().walls[std::size_t(strongest->wall)];
        if (channel::nlos_unfold(wall, echo.range_m, bearing_deg, &nx, &ny)) {
          // The "nlos" tag on this fix: a span on its own subtrack enclosing
          // the burst (spans carry no attributes).
          obs::Span nlos_span(loc_obs().nlos_span, 0.0,
                              obs::trace_lane(obs::kLaneLocalizer, 5));
          result.detected = true;
          result.range_m = std::hypot(nx, ny);
          result.angle_deg = rad2deg(std::atan2(ny, nx));
          result.detection_snr_db = echo.snr_db;
          result.aoa_offset_deg = echo.aoa_offset_deg;
          result.steered_azimuth_deg = steer2_deg;
          result.nlos_fallback = true;
          result.reflector_wall = strongest->wall;
          loc_obs().nlos_fallback.add();
          nlos_span.end(burst_samples);
        }
      }
    }
  }

  if (result.detected) {
    loc_obs().detections.add();
    loc_obs().detection_snr_db.record(result.detection_snr_db);
  }
  return result;
}

}  // namespace milback::ap
