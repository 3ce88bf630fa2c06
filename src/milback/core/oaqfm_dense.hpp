// Dense OAQFM — the paper's proposed extension (Section 9.4): "define denser
// OAQFM modulation schemes, where each symbol represents more bits by
// considering different amplitudes for each tone of OAQFM."
//
// Each tone carries one of L amplitude levels instead of on/off. Because the
// node's envelope detector is linear in *power*, the constellation is spaced
// uniformly in power (amplitude = sqrt(k/(L-1))) so the detector-output
// decision levels are equidistant. L = 2 degenerates to standard OAQFM;
// L = 4 doubles the bit rate (4 bits/symbol) at the cost of ~9.5 dB extra
// SINR for the same error rate.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace milback::core {

/// Dense-OAQFM parameters.
struct DenseOaqfmConfig {
  unsigned levels_per_tone = 4;  ///< L; must be a power of two in [2, 16].
};

/// One dense symbol: a power level per tone.
struct DenseSymbol {
  std::uint8_t level_a = 0;  ///< Tone-A level in [0, L-1].
  std::uint8_t level_b = 0;  ///< Tone-B level in [0, L-1].

  bool operator==(const DenseSymbol&) const = default;
};

/// True if L is a valid level count (power of two, 2..16).
/// (Inline: used from the ap/node layers below milback_core.)
inline bool valid_levels(unsigned levels) noexcept {
  return levels >= 2 && levels <= 16 && (levels & (levels - 1)) == 0;
}

/// Bits per dense symbol: 2 * log2(L).
// milback-analyze: no-contract(invalid level counts are defined to return 0)
inline unsigned dense_bits_per_symbol(unsigned levels) noexcept {
  if (!valid_levels(levels)) return 0;
  unsigned bits = 0;
  for (unsigned l = levels; l > 1; l >>= 1) ++bits;
  return 2 * bits;
}

/// Transmit power fraction (relative to full scale) of level k: k / (L-1) —
/// uniform in the detector's power domain.
inline double level_power_fraction(unsigned k, unsigned levels) noexcept {
  if (levels < 2) return 0.0;
  return double(std::min(k, levels - 1)) / double(levels - 1);
}

/// Transmit amplitude fraction of level k: sqrt(level_power_fraction).
inline double level_amplitude_fraction(unsigned k, unsigned levels) noexcept {
  return std::sqrt(level_power_fraction(k, levels));
}

/// Nearest-level slicer for a measured detector voltage, given the observed
/// full-scale voltage (level L-1). Returns a level in [0, L-1].
// milback-analyze: no-contract(degenerate full-scale or level count is defined to slice to level 0)
inline std::uint8_t slice_level(double v, double v_full_scale,
                                unsigned levels) noexcept {
  if (v_full_scale <= 0.0 || levels < 2) return 0;
  const double step = v_full_scale / double(levels - 1);
  const auto k = std::llround(std::max(v, 0.0) / step);
  return std::uint8_t(std::clamp<long long>(k, 0, levels - 1));
}

/// Packs bits into dense symbols (Gray-coded per tone so adjacent-level
/// errors cost one bit). Trailing bits are zero-padded.
std::vector<DenseSymbol> dense_symbols_from_bits(const std::vector<bool>& bits,
                                                 unsigned levels);

/// Unpacks dense symbols back to bits.
std::vector<bool> dense_bits_from_symbols(const std::vector<DenseSymbol>& symbols,
                                          unsigned levels);

/// Gray code / inverse for the per-tone level mapping.
std::uint8_t gray_encode(std::uint8_t v) noexcept;
/// Inverse of gray_encode.
std::uint8_t gray_decode(std::uint8_t g) noexcept;

/// Bit errors between transmitted and received dense streams.
std::size_t dense_bit_errors(const std::vector<DenseSymbol>& tx,
                             const std::vector<DenseSymbol>& rx, unsigned levels);

/// Approximate per-tone symbol-error-driven BER of L-level power-domain ASK
/// at full-scale decision SNR `snr_linear` = (V_fullscale / sigma_v)^2,
/// assuming Gray coding: Pb ~ 2 (1 - 1/L) Q( sqrt(snr) / (2 (L-1)) ) / log2 L.
double ber_dense_ask(double snr_linear, unsigned levels);

/// Extra SINR [dB] L-level dense OAQFM needs over standard OAQFM (L = 2) to
/// hold the same BER: 20 log10(L - 1) (decision-distance shrinkage).
double dense_snr_penalty_db(unsigned levels) noexcept;

}  // namespace milback::core
