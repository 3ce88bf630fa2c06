// Forward error correction for MilBack payloads.
//
// Section 7 leaves payload format "adjusted based on the application and
// data-rate requirements"; near the range edge (Fig 15a's 2e-4 at 8 m) a
// light code buys meaningful range. Hamming(7,4) with single-error
// correction is the classic fit for a microcontroller-class node: 4/7 rate,
// decode is a 3-bit syndrome lookup — well within the MSP430's budget.
#pragma once

#include <cstddef>
#include <vector>

namespace milback::core {

/// Code rate of Hamming(7,4).
inline constexpr double kHamming74Rate = 4.0 / 7.0;

/// Encodes data bits into Hamming(7,4) codewords. The tail is zero-padded
/// to a multiple of 4 data bits.
std::vector<bool> hamming74_encode(const std::vector<bool>& data);

/// Decode outcome.
struct FecDecodeResult {
  std::vector<bool> data;        ///< Recovered data bits (4 per block).
  std::size_t corrected = 0;     ///< Blocks where a single error was fixed.
  std::size_t blocks = 0;        ///< Total blocks processed.
};

/// Decodes Hamming(7,4) codewords with single-error correction per block.
/// A trailing partial block is dropped.
FecDecodeResult hamming74_decode(const std::vector<bool>& coded);

/// Post-decoding BER estimate for a raw channel bit error rate `raw_ber`
/// (combinatorial over >= 2 errors per 7-bit block; miscorrection adds one
/// more flipped bit per failed block).
double hamming74_coded_ber(double raw_ber);

/// Effective data rate [bps] through the code at a given channel rate.
inline double hamming74_data_rate(double channel_rate_bps) noexcept {
  return channel_rate_bps * kHamming74Rate;
}

}  // namespace milback::core
