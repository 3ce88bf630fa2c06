// Shared helpers of the integration suites that run one scenario at several
// worker counts or pin a digest of its report: a scoped MILBACK_SIM_THREADS
// override, an FNV-1a digest, and CellReport comparison and folding.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "milback/cell/cell_engine.hpp"

namespace milback {

/// Scoped MILBACK_SIM_THREADS override (restores the prior value on exit).
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv(kName);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(kName, value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      ::setenv(kName, saved_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "MILBACK_SIM_THREADS";
  std::string saved_;
  bool had_value_ = false;
};

/// FNV-1a over the folded values' bytes (doubles by bit pattern).
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte(static_cast<unsigned char>(v >> (8 * b)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(std::uint64_t{s.size()});
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace milback

namespace milback::cell {

/// Field-exact comparison of two cell reports' traffic outcome.
inline void expect_reports_identical(const CellReport& a, const CellReport& b) {
  EXPECT_EQ(a.service_rounds, b.service_rounds);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.peak_population, b.peak_population);
  EXPECT_EQ(a.final_population, b.final_population);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_DOUBLE_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
  EXPECT_DOUBLE_EQ(a.cell_capacity_bps, b.cell_capacity_bps);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE(a.nodes[i].id);
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
    EXPECT_EQ(a.nodes[i].rounds_served, b.nodes[i].rounds_served);
    EXPECT_DOUBLE_EQ(a.nodes[i].offered_bits, b.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].delivered_bits, b.nodes[i].delivered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].mean_latency_s, b.nodes[i].mean_latency_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].p95_latency_s, b.nodes[i].p95_latency_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].peak_queue_bits, b.nodes[i].peak_queue_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].final_queue_bits, b.nodes[i].final_queue_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].service_rate_bps, b.nodes[i].service_rate_bps);
  }
}

/// Folds a cell report's whole-cell and per-node traffic fields (not its
/// mesh report) into `f`.
inline void fold_traffic(Fnv& f, const CellReport& r) {
  f.add(std::uint64_t{r.service_rounds});
  f.add(std::uint64_t{r.events_dispatched});
  f.add(std::uint64_t{r.peak_population});
  f.add(std::uint64_t{r.final_population});
  f.add(r.aggregate_goodput_bps);
  f.add(r.cell_capacity_bps);
  f.add(std::uint64_t{r.stable});
  for (const auto& n : r.nodes) {
    f.add(n.id.view());
    f.add(n.join_time_s);
    f.add(n.leave_time_s);
    f.add(n.offered_bits);
    f.add(n.delivered_bits);
    f.add(n.mean_latency_s);
    f.add(n.p50_latency_s);
    f.add(n.p95_latency_s);
    f.add(n.peak_queue_bits);
    f.add(n.final_queue_bits);
    f.add(n.service_rate_bps);
    f.add(std::uint64_t{n.rounds_served});
  }
}

}  // namespace milback::cell
