// Window function tests.
#include <gtest/gtest.h>

#include "milback/dsp/window.hpp"

namespace milback::dsp {
namespace {

class WindowTypes : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypes, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << "asymmetric at " << i;
  }
}

TEST_P(WindowTypes, PeaksAtCenter) {
  const auto w = make_window(GetParam(), 65);
  EXPECT_NEAR(w[32], 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTypes,
                         ::testing::Values(WindowType::kRectangular, WindowType::kHann));

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowType::kRectangular, 16);
  for (const double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannEndsAtZero) {
  const auto w = make_window(WindowType::kHann, 33);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
}

TEST(Window, DegenerateSizes) {
  EXPECT_TRUE(make_window(WindowType::kHann, 0).empty());
  const auto w1 = make_window(WindowType::kHann, 1);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_DOUBLE_EQ(w1[0], 1.0);
}

TEST(Window, CoherentGainKnownValues) {
  EXPECT_NEAR(coherent_gain(make_window(WindowType::kRectangular, 64)), 1.0, 1e-12);
  // Hann coherent gain -> 0.5 for large N.
  EXPECT_NEAR(coherent_gain(make_window(WindowType::kHann, 4097)), 0.5, 1e-3);
}

TEST(Window, CacheReturnsSharedInstance) {
  const CachedWindow& a = cached_window(WindowType::kHann, 900);
  const CachedWindow& b = cached_window(WindowType::kHann, 900);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &cached_window(WindowType::kHann, 901));
  EXPECT_NE(&a, &cached_window(WindowType::kRectangular, 900));
}

TEST(Window, CachedEntryMatchesDirectComputation) {
  const auto& c = cached_window(WindowType::kHann, 257);
  const auto direct = make_window(WindowType::kHann, 257);
  ASSERT_EQ(c.samples.size(), direct.size());
  const double cg = coherent_gain(direct);
  EXPECT_DOUBLE_EQ(c.coherent_gain_lin, cg);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(c.samples[i], direct[i]);
    EXPECT_DOUBLE_EQ(c.normalized[i], direct[i] / cg);
  }
}

TEST(Window, CachedEmptyWindow) {
  const auto& c = cached_window(WindowType::kHann, 0);
  EXPECT_TRUE(c.samples.empty());
  EXPECT_TRUE(c.normalized.empty());
}

}  // namespace
}  // namespace milback::dsp
