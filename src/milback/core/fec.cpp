#include "milback/core/fec.hpp"

#include <array>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::core {

namespace {

// Systematic Hamming(7,4): codeword [d1 d2 d3 d4 p1 p2 p3] with
//   p1 = d1 ^ d2 ^ d4, p2 = d1 ^ d3 ^ d4, p3 = d2 ^ d3 ^ d4.
// Syndrome bits recompute the parities; the 3-bit syndrome indexes the
// flipped position (0 = clean).
constexpr std::array<int, 8> kSyndromeToPosition = {
    // s = (s1) | (s2<<1) | (s3<<2); positions 0..6, -1 = no error
    -1,  // 000
    4,   // 001 -> p1
    5,   // 010 -> p2
    0,   // 011 -> d1
    6,   // 100 -> p3
    1,   // 101 -> d2
    2,   // 110 -> d3
    3,   // 111 -> d4
};

double binom(int n, int k) {
  double r = 1.0;
  for (int i = 1; i <= k; ++i) r = r * double(n - k + i) / double(i);
  return r;
}

}  // namespace

std::vector<bool> hamming74_encode(const std::vector<bool>& data) {
  std::vector<bool> out;
  const std::size_t blocks = (data.size() + 3) / 4;
  out.reserve(blocks * 7);
  for (std::size_t b = 0; b < blocks; ++b) {
    bool d[4] = {false, false, false, false};
    for (std::size_t i = 0; i < 4; ++i) {
      const std::size_t idx = b * 4 + i;
      d[i] = idx < data.size() && data[idx];
    }
    const bool p1 = d[0] ^ d[1] ^ d[3];
    const bool p2 = d[0] ^ d[2] ^ d[3];
    const bool p3 = d[1] ^ d[2] ^ d[3];
    out.insert(out.end(), {d[0], d[1], d[2], d[3], p1, p2, p3});
  }
  MILBACK_ENSURE(out.size() == blocks * 7, "hamming74_encode: whole 7-bit blocks");
  return out;
}

FecDecodeResult hamming74_decode(const std::vector<bool>& coded) {
  FecDecodeResult r;
  r.blocks = coded.size() / 7;
  r.data.reserve(r.blocks * 4);
  for (std::size_t b = 0; b < r.blocks; ++b) {
    bool c[7];
    for (std::size_t i = 0; i < 7; ++i) c[i] = coded[b * 7 + i];
    const bool s1 = c[4] ^ (c[0] ^ c[1] ^ c[3]);
    const bool s2 = c[5] ^ (c[0] ^ c[2] ^ c[3]);
    const bool s3 = c[6] ^ (c[1] ^ c[2] ^ c[3]);
    const int syndrome = int(s1) | (int(s2) << 1) | (int(s3) << 2);
    const int pos = kSyndromeToPosition[std::size_t(syndrome)];
    if (pos >= 0) {
      c[pos] = !c[pos];
      ++r.corrected;
    }
    r.data.insert(r.data.end(), {c[0], c[1], c[2], c[3]});
  }
  MILBACK_ENSURE(r.data.size() == r.blocks * 4, "hamming74_decode: 4 data bits per block");
  return r;
}

double hamming74_coded_ber(double raw_ber) {
  require_finite(raw_ber, "raw_ber");
  const double p = std::min(std::max(raw_ber, 0.0), 0.5);
  if (p <= 0.0) return 0.0;
  // For j >= 2 channel errors in a block the decoder (at best) leaves j and
  // (typically) miscorrects to j + 1 flipped codeword bits; in a systematic
  // code ~4/7 of those land on data bits.
  double expected_data_errors = 0.0;
  for (int j = 2; j <= 7; ++j) {
    const double pj = binom(7, j) * std::pow(p, j) * std::pow(1.0 - p, 7 - j);
    expected_data_errors += pj * double(j + 1) * (4.0 / 7.0);
  }
  return std::min(0.5, expected_data_errors / 4.0);
}

}  // namespace milback::core
