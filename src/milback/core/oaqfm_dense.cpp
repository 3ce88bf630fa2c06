#include "milback/core/oaqfm_dense.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/ber.hpp"
#include "milback/core/contract.hpp"

namespace milback::core {

std::uint8_t gray_encode(std::uint8_t v) noexcept {
  return std::uint8_t(v ^ (v >> 1));
}

// milback-analyze: no-contract(total involution over all 8-bit values; inverse of gray_encode)
std::uint8_t gray_decode(std::uint8_t g) noexcept {
  std::uint8_t v = g;
  for (std::uint8_t shift = 1; shift < 8; shift <<= 1) v ^= std::uint8_t(v >> shift);
  return v;
}

namespace {

unsigned bits_per_tone(unsigned levels) { return dense_bits_per_symbol(levels) / 2; }

// Reads `nbits` MSB-first bits starting at `pos` (zero-padded past the end).
std::uint8_t read_bits(const std::vector<bool>& bits, std::size_t pos, unsigned nbits) {
  std::uint8_t v = 0;
  for (unsigned i = 0; i < nbits; ++i) {
    v = std::uint8_t(v << 1);
    if (pos + i < bits.size() && bits[pos + i]) v |= 1;
  }
  return v;
}

}  // namespace

std::vector<DenseSymbol> dense_symbols_from_bits(const std::vector<bool>& bits,
                                                 unsigned levels) {
  std::vector<DenseSymbol> out;
  if (!valid_levels(levels)) return out;
  const unsigned per_tone = bits_per_tone(levels);
  const unsigned per_symbol = 2 * per_tone;
  const std::size_t n_symbols = (bits.size() + per_symbol - 1) / per_symbol;
  out.reserve(n_symbols);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t base = s * per_symbol;
    DenseSymbol sym;
    // Gray-encode so a one-level slicer error flips exactly one bit.
    sym.level_a = gray_decode(read_bits(bits, base, per_tone));
    sym.level_b = gray_decode(read_bits(bits, base + per_tone, per_tone));
    out.push_back(sym);
  }
  MILBACK_ENSURE(out.size() == n_symbols, "dense_symbols_from_bits: all bits packed");
  return out;
}

std::vector<bool> dense_bits_from_symbols(const std::vector<DenseSymbol>& symbols,
                                          unsigned levels) {
  std::vector<bool> out;
  if (!valid_levels(levels)) return out;
  const unsigned per_tone = bits_per_tone(levels);
  out.reserve(symbols.size() * 2 * per_tone);
  auto push = [&](std::uint8_t level) {
    const std::uint8_t g = gray_encode(level);
    for (unsigned i = per_tone; i-- > 0;) out.push_back((g >> i) & 1);
  };
  for (const auto& s : symbols) {
    push(s.level_a);
    push(s.level_b);
  }
  MILBACK_ENSURE(out.size() == symbols.size() * 2 * per_tone,
                 "dense_bits_from_symbols: two gray-coded tones per symbol");
  return out;
}

std::size_t dense_bit_errors(const std::vector<DenseSymbol>& tx,
                             const std::vector<DenseSymbol>& rx, unsigned levels) {
  const auto tx_bits = dense_bits_from_symbols(tx, levels);
  const auto rx_bits = dense_bits_from_symbols(rx, levels);
  const std::size_t common = std::min(tx_bits.size(), rx_bits.size());
  std::size_t errors = std::max(tx_bits.size(), rx_bits.size()) - common;
  for (std::size_t i = 0; i < common; ++i) errors += std::size_t(tx_bits[i] != rx_bits[i]);
  MILBACK_ENSURE(errors <= std::max(tx_bits.size(), rx_bits.size()),
                 "dense_bit_errors: bounded by total bit count");
  return errors;
}

double ber_dense_ask(double snr_linear, unsigned levels) {
  require_finite(snr_linear, "snr_linear");
  if (!valid_levels(levels) || snr_linear <= 0.0) return 0.5;
  const double L = double(levels);
  const double arg = std::sqrt(snr_linear) / (2.0 * (L - 1.0));
  const double pser = 2.0 * (1.0 - 1.0 / L) * q_function(arg);
  const double bits = double(dense_bits_per_symbol(levels)) / 2.0;  // per tone
  return std::min(0.5, pser / bits);
}

double dense_snr_penalty_db(unsigned levels) noexcept {
  if (!valid_levels(levels)) return 0.0;
  return 20.0 * std::log10(double(levels - 1));
}

}  // namespace milback::core
