// Dual-port frequency-scanning antenna (FSA) — the core passive structure of
// the MilBack node (Sections 2 and 4 of the paper).
//
// Physical model: a series-fed leaky-wave array of N emitting elements with
// inter-element spacing d = lambda_c/2 and a per-section transmission-line
// delay tau. Feeding from port A, element n radiates with phase
// -2*pi*f*tau*n; toward direction theta the free-space path adds
// k*d*sin(theta)*n, so the inter-element phase progression is
//
//     psi_A(f, theta) = k d sin(theta) - 2 pi f tau   (mod 2 pi)
//
// and the beam points where psi_A = -2 pi m for integer mode m:
//
//     sin(theta_A(f)) = (2 f_c / f) * (f tau - m),   tau = m / f_c
//
// With m = 5 and f_c = 28 GHz the beam scans ~ +-32 degrees over
// 26.5-29.5 GHz — the paper's ">60 degrees with only 3 GHz" property.
// Port B feeds the same aperture from the opposite end, reversing the line
// delay sign, hence theta_B(f) = -theta_A(f): the mirrored beam family of
// Figure 3. The structure is passive and consumes no power.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

namespace milback::antenna {

/// The two feed ports of the dual-port FSA.
enum class FsaPort { kA, kB };

/// Returns the opposite port.
constexpr FsaPort other_port(FsaPort p) noexcept {
  return p == FsaPort::kA ? FsaPort::kB : FsaPort::kA;
}

/// FSA design parameters. Defaults reproduce the paper's prototype:
/// 26.5-29.5 GHz band, ~10 degree beams, 10-14 dBi gain, ~65 degree scan.
struct FsaConfig {
  std::size_t n_elements = 12;       ///< Series-fed emitting elements.
  double center_frequency_hz = 28e9; ///< Broadside frequency f_c.
  int mode_number = 5;               ///< Line-length mode m (tau = m / f_c).
  double element_gain_dbi = 5.0;     ///< Single patch element boresight gain.
  double element_pattern_q = 4.0;    ///< Element pattern exponent cos^q
                                     ///< (effective: includes scan-dependent
                                     ///< feed losses; calibrated so edge-of-
                                     ///< scan beams land near Fig 10's
                                     ///< ~10-11 dBi).
  double efficiency_db = -1.5;       ///< Ohmic + feed network loss.
  double sidelobe_floor_db = -27.5;  ///< Diffuse floor relative to peak gain.
  double min_frequency_hz = 26.5e9;  ///< Operating band low edge.
  double max_frequency_hz = 29.5e9;  ///< Operating band high edge.
};

/// Passive dual-port frequency-scanning antenna.
class DualPortFsa {
 public:
  /// Builds the FSA (throws std::invalid_argument for degenerate geometry).
  explicit DualPortFsa(const FsaConfig& config = {});

  /// Element spacing d = lambda_c / 2 [m].
  double element_spacing_m() const noexcept { return spacing_m_; }

  /// Per-section line delay tau = m / f_c [s].
  double line_delay_s() const noexcept { return line_delay_s_; }

  /// Beam direction [deg] of `port` at frequency `f_hz`; std::nullopt when
  /// the mainlobe has scanned past endfire (|sin| > 1) — outside the
  /// operating band.
  std::optional<double> beam_angle_deg(FsaPort port, double f_hz) const;

  /// Frequency [Hz] whose beam (for `port`) points at `theta_deg`;
  /// std::nullopt when that frequency falls outside the operating band.
  std::optional<double> beam_frequency_hz(FsaPort port, double theta_deg) const;

  /// Realized gain [dBi] of `port` at frequency `f_hz` toward `theta_deg`:
  /// array factor x element pattern x efficiency, floored by the diffuse
  /// sidelobe level.
  double gain_dbi(FsaPort port, double f_hz, double theta_deg) const;

  /// Linear power gain version of gain_dbi.
  double gain_linear(FsaPort port, double f_hz, double theta_deg) const;

  /// Peak realized gain [dBi] (at broadside, band center).
  double peak_gain_dbi() const noexcept { return peak_gain_dbi_; }

  /// Half-power beamwidth [deg] at frequency `f_hz` (scan-broadened).
  double beamwidth_deg(double f_hz) const;

  /// The OAQFM carrier pair for a node whose boresight normal points
  /// `theta_deg` away from the AP direction: first = port A's aligned
  /// frequency, second = port B's. std::nullopt if either falls out of band
  /// (orientation outside the FSA's scan range).
  std::optional<std::pair<double, double>> carrier_pair_for_angle(
      double theta_deg) const;

  /// True when the node is close enough to normal incidence that both ports
  /// alias to (nearly) the same carrier and OAQFM degenerates to OOK.
  /// `min_separation_hz` is the smallest usable tone spacing.
  bool normal_incidence(double theta_deg, double min_separation_hz) const;

  /// Scan range [deg] across the operating band (min angle, max angle) for
  /// port A (port B is the mirror image).
  std::pair<double, double> scan_range_deg() const;

  /// Config echo.
  const FsaConfig& config() const noexcept { return config_; }

 private:
  /// Inter-element phase progression psi for a port [radians].
  double psi(FsaPort port, double f_hz, double theta_deg) const noexcept;

  FsaConfig config_;
  double spacing_m_ = 0.0;
  double line_delay_s_ = 0.0;
  /// array directivity + element gain + efficiency, fixed by the config.
  double peak_gain_dbi_ = 0.0;
};

}  // namespace milback::antenna
