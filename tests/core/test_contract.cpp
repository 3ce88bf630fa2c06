// Contract-layer tests: the macros, the pluggable handler, the domain
// guards, and — most importantly — that invalid configurations of the
// physics subsystems are rejected with a ContractViolation whose message
// names the failed predicate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "milback/antenna/fsa.hpp"
#include "milback/core/contract.hpp"
#include "milback/core/link.hpp"
#include "milback/core/rate_adapt.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/smoothing.hpp"
#include "milback/radar/cfar.hpp"
#include "milback/radar/chirp.hpp"
#include "milback/rf/horn_antenna.hpp"
#include "milback/util/units.hpp"

namespace milback {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// --- macros -----------------------------------------------------------------

TEST(ContractMacros, RequirePassesOnTrue) {
  EXPECT_NO_THROW(MILBACK_REQUIRE(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(MILBACK_ENSURE(true, "trivially"));
  EXPECT_NO_THROW(MILBACK_ASSERT(true));
}

TEST(ContractMacros, RequireThrowsWithKindAndPredicate) {
  try {
    MILBACK_REQUIRE(2 < 1, "two is not less than one");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "precondition");
    EXPECT_EQ(v.predicate(), "2 < 1");
    EXPECT_GT(v.line(), 0);
    const std::string what = v.what();
    EXPECT_NE(what.find("two is not less than one"), std::string::npos);
    EXPECT_NE(what.find("2 < 1"), std::string::npos);  // message names the predicate
  }
}

TEST(ContractMacros, EnsureAndAssertReportTheirKind) {
  try {
    MILBACK_ENSURE(false, "post failed");
    FAIL();
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "postcondition");
  }
  try {
    MILBACK_ASSERT(false);
    FAIL();
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "assertion");
  }
}

TEST(ContractMacros, ViolationIsCatchableAsInvalidArgument) {
  // Pre-contract call sites catch std::invalid_argument; that must keep
  // working.
  EXPECT_THROW(MILBACK_REQUIRE(false, "compat"), std::invalid_argument);
}

// --- handler plumbing -------------------------------------------------------

int g_custom_handler_hits = 0;

void counting_handler(const ContractViolation& v) {
  ++g_custom_handler_hits;
  throw v;  // a handler must not return
}

TEST(ContractHandler, DefaultIsThrowing) {
  EXPECT_EQ(contract::handler(), &contract::throwing_handler);
}

TEST(ContractHandler, GuardSwapsAndRestores) {
  const auto before = contract::handler();
  {
    contract::HandlerGuard guard(&counting_handler);
    EXPECT_EQ(contract::handler(), &counting_handler);
    g_custom_handler_hits = 0;
    EXPECT_THROW(MILBACK_REQUIRE(false, "routed"), ContractViolation);
    EXPECT_EQ(g_custom_handler_hits, 1);
  }
  EXPECT_EQ(contract::handler(), before);
}

TEST(ContractHandler, NullRestoresDefault) {
  contract::HandlerGuard guard(&counting_handler);
  contract::set_handler(nullptr);
  EXPECT_EQ(contract::handler(), &contract::throwing_handler);
}

// --- domain guards ----------------------------------------------------------

TEST(DomainGuards, ReturnValidatedValue) {
  EXPECT_DOUBLE_EQ(require_finite(-2.5, "x"), -2.5);
  EXPECT_DOUBLE_EQ(require_positive(28e9, "f"), 28e9);
  EXPECT_DOUBLE_EQ(require_non_negative(0.0, "loss"), 0.0);
  EXPECT_DOUBLE_EQ(require_in_range(0.5, 0.0, 1.0, "frac"), 0.5);
  EXPECT_DOUBLE_EQ(require_unit_interval(1.0, "p"), 1.0);
  EXPECT_EQ(require_nonzero(7, "n"), 7u);
}

TEST(DomainGuards, RejectOutOfDomain) {
  EXPECT_THROW(require_finite(kNan, "x"), ContractViolation);
  EXPECT_THROW(require_finite(std::numeric_limits<double>::infinity(), "x"),
               ContractViolation);
  EXPECT_THROW(require_positive(0.0, "f"), ContractViolation);
  EXPECT_THROW(require_positive(kNan, "f"), ContractViolation);
  EXPECT_THROW(require_non_negative(-1e-9, "loss"), ContractViolation);
  EXPECT_THROW(require_in_range(1.5, 0.0, 1.0, "frac"), ContractViolation);
  EXPECT_THROW(require_unit_interval(-0.1, "p"), ContractViolation);
  EXPECT_THROW(require_nonzero(0, "n"), ContractViolation);
}

TEST(DomainGuards, MessageNamesQuantityAndValue) {
  try {
    require_positive(-3.0, "bandwidth_hz");
    FAIL();
  } catch (const ContractViolation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("bandwidth_hz"), std::string::npos);
    EXPECT_NE(what.find("-3"), std::string::npos);
  }
}

// --- subsystem entry points reject invalid configs --------------------------

TEST(SubsystemContracts, FsaRejectsDegenerateGeometry) {
  antenna::FsaConfig cfg;
  cfg.n_elements = 1;  // an array needs >= 2 elements
  EXPECT_THROW(antenna::DualPortFsa{cfg}, ContractViolation);

  antenna::FsaConfig nan_gain;
  nan_gain.element_gain_dbi = kNan;
  EXPECT_THROW(antenna::DualPortFsa{nan_gain}, ContractViolation);

  antenna::FsaConfig zero_freq;
  zero_freq.center_frequency_hz = 0.0;
  EXPECT_THROW(antenna::DualPortFsa{zero_freq}, ContractViolation);
}

TEST(SubsystemContracts, CfarRejectsDegenerateWindow) {
  const std::vector<double> stat(64, 1.0);
  radar::CfarConfig no_train;
  no_train.train_cells = 0;
  EXPECT_THROW(radar::cfar_threshold(stat, no_train), ContractViolation);

  radar::CfarConfig bad_factor;
  bad_factor.threshold_factor = -1.0;
  EXPECT_THROW(radar::cfar_threshold(stat, bad_factor), ContractViolation);
}

TEST(SubsystemContracts, DspRejectsMalformedInput) {
  // Plans exist for nonzero powers of two only, and a plan transforms
  // exactly its own length.
  EXPECT_THROW(dsp::fft_plan(0), ContractViolation);
  EXPECT_THROW(dsp::fft_plan(12), ContractViolation);
  std::vector<dsp::cplx> short_input(8);
  EXPECT_THROW(dsp::fft_plan(16).forward(short_input), ContractViolation);
  EXPECT_THROW(dsp::moving_average({1.0, 2.0}, 0), ContractViolation);  // zero width
}

TEST(SubsystemContracts, ScalarChecksThrowToTheCaller) {
  // Scalar helpers that validate their argument must let the violation
  // reach the caller as a ContractViolation under the default handler; a
  // noexcept on any of them would terminate the process instead.
  EXPECT_THROW(wrap_degrees(kNan), ContractViolation);
  EXPECT_THROW(rf::HornAntenna{rf::HornAntennaConfig{}}.gain_dbi(kNan), ContractViolation);
  EXPECT_THROW(radar::ChirpConfig{}.frequency_at(kNan), ContractViolation);
  EXPECT_THROW(core::service_rate_bps(core::RateAdaptConfig{}, kNan), ContractViolation);
}

TEST(SubsystemContracts, AntennaGainLinearThrowsToTheCaller) {
  // The linear-gain wrappers reach gain_dbi's angle check; without a
  // noexcept on them the violation reaches the caller instead of
  // terminating the process.
  EXPECT_THROW(rf::HornAntenna{rf::HornAntennaConfig{}}.gain_linear(kNan), ContractViolation);
  const antenna::DualPortFsa fsa{antenna::FsaConfig{}};
  EXPECT_THROW(fsa.gain_linear(antenna::FsaPort::kA, 26.5e9, kNan), ContractViolation);
  EXPECT_THROW(fsa.gain_linear(antenna::FsaPort::kB, 26.5e9, kNan), ContractViolation);
}

TEST(SubsystemContracts, LocalizeRejectsNonPhysicalPose) {
  Rng env(1);
  core::MilBackLink link(
      channel::BackscatterChannel::make_default(channel::Environment::indoor_office(env),
                                                channel::ChannelConfig{}),
      core::LinkConfig{});
  Rng rng(2);
  EXPECT_THROW(link.localize({kNan, 0.0, 12.0}, rng), ContractViolation);
  EXPECT_THROW(link.localize({-1.0, 0.0, 12.0}, rng), ContractViolation);
}

}  // namespace
}  // namespace milback
