// Contract checking for MilBack's physics models.
//
// A silent NaN in an array factor or a degrees/radians mix-up in the
// localizer invalidates every benchmark downstream, so every subsystem's
// public entry points validate their inputs through this layer instead of
// ad-hoc `throw std::invalid_argument` calls:
//
//   MILBACK_REQUIRE(cond, msg)  -- precondition on caller-supplied inputs.
//   MILBACK_ENSURE(cond, msg)   -- postcondition on computed results.
//   MILBACK_ASSERT(cond)        -- internal invariant.
//
// plus domain guards for the quantities that recur across the codebase
// (frequencies, powers, angles, probabilities, sample counts):
//
//   require_finite / require_positive / require_non_negative /
//   require_in_range / require_unit_interval / require_nonzero
//
// A violation routes through a pluggable handler. The default handler
// throws `ContractViolation` (derived from std::invalid_argument, so
// existing call sites and tests that catch the standard type keep
// working). Production binaries that prefer fail-fast semantics install
// `contract::aborting_handler`, which prints the violation to stderr and
// aborts. If a custom handler returns instead of throwing, the process
// aborts — a violated contract never continues silently.
#pragma once

#include <cmath>
#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>

namespace milback {

/// Thrown (by the default handler) when a contract predicate fails.
/// Derives std::invalid_argument so pre-contract call sites still catch it.
class ContractViolation : public std::invalid_argument {
 public:
  ContractViolation(const char* kind, const char* predicate, const std::string& message,
                    const char* file, int line);

  /// "precondition", "postcondition" or "assertion".
  const std::string& kind() const noexcept { return kind_; }

  /// Stringified predicate that failed, e.g. "bandwidth_hz > 0".
  const std::string& predicate() const noexcept { return predicate_; }

  /// Source location of the failed check.
  const std::string& file() const noexcept { return file_; }
  int line() const noexcept { return line_; }

 private:
  std::string kind_;
  std::string predicate_;
  std::string file_;
  int line_ = 0;
};

namespace contract {

/// Violation handler. Must not return normally: throw, or terminate the
/// process. If a handler does return, `violate` aborts.
using Handler = void (*)(const ContractViolation&);

/// Installs `h` as the process-wide handler; returns the previous one.
/// Passing nullptr restores the default (throwing) handler.
Handler set_handler(Handler h) noexcept;

/// Currently installed handler.
Handler handler() noexcept;

/// Default handler: throws its argument.
void throwing_handler(const ContractViolation& v);

/// Fail-fast handler for production binaries: prints the violation to
/// stderr and calls std::abort().
[[noreturn]] void aborting_handler(const ContractViolation& v);

/// RAII scope guard that swaps the handler and restores it on destruction
/// (used by tests that exercise the aborting path).
class HandlerGuard {
 public:
  explicit HandlerGuard(Handler h) noexcept : previous_(set_handler(h)) {}
  ~HandlerGuard() { set_handler(previous_); }
  HandlerGuard(const HandlerGuard&) = delete;
  HandlerGuard& operator=(const HandlerGuard&) = delete;

 private:
  Handler previous_;
};

/// Routes a violation through the installed handler; aborts if the handler
/// returns. Never returns to the caller.
[[noreturn]] void violate(const char* kind, const char* predicate,
                          const std::string& message, const char* file, int line);

}  // namespace contract

// Contract macros. The condition is evaluated exactly once; the message
// expression is only evaluated on failure.
#define MILBACK_CONTRACT_CHECK_(kind, cond, msg)                                   \
  (static_cast<bool>(cond)                                                         \
       ? void(0)                                                                   \
       : ::milback::contract::violate(kind, #cond, (msg), __FILE__, __LINE__))

/// Precondition on caller-supplied inputs.
#define MILBACK_REQUIRE(cond, msg) MILBACK_CONTRACT_CHECK_("precondition", cond, msg)

/// Postcondition on computed results.
#define MILBACK_ENSURE(cond, msg) MILBACK_CONTRACT_CHECK_("postcondition", cond, msg)

/// Internal invariant (no custom message).
#define MILBACK_ASSERT(cond) MILBACK_CONTRACT_CHECK_("assertion", cond, "invariant failed")

// Domain guards. Each returns the validated value so call sites can guard
// and consume in one expression:
//   config_.bandwidth_hz = require_positive(config.bandwidth_hz, "bandwidth_hz");

namespace contract {

/// Out-of-line, cold failure paths of the inline guards below: build the
/// message and route it through violate(). Never return.
[[noreturn, gnu::cold]] void finite_violated(double v, const char* name,
                                             const std::source_location& loc);
[[noreturn, gnu::cold]] void positive_violated(double v, const char* name,
                                               const std::source_location& loc);
[[noreturn, gnu::cold]] void non_negative_violated(double v, const char* name,
                                                   const std::source_location& loc);

}  // namespace contract

// The three hot guards run on every budget probe, so their test is inline;
// only a failure leaves the caller.

/// Requires `v` to be finite (no NaN/inf). `name` labels the quantity.
inline double require_finite(double v, const char* name,
                             std::source_location loc = std::source_location::current()) {
  if (!std::isfinite(v)) [[unlikely]] contract::finite_violated(v, name, loc);
  return v;
}

/// Requires `v` to be finite and strictly positive.
inline double require_positive(double v, const char* name,
                               std::source_location loc = std::source_location::current()) {
  if (!std::isfinite(v) || v <= 0.0) [[unlikely]] {
    contract::positive_violated(v, name, loc);
  }
  return v;
}

/// Requires `v` to be finite and >= 0.
inline double require_non_negative(double v, const char* name,
                                   std::source_location loc = std::source_location::current()) {
  if (!std::isfinite(v) || v < 0.0) [[unlikely]] {
    contract::non_negative_violated(v, name, loc);
  }
  return v;
}

/// Requires `v` to be finite and inside [lo, hi].
double require_in_range(double v, double lo, double hi, const char* name,
                        std::source_location loc = std::source_location::current());

/// Requires `v` to be a probability/fraction in [0, 1].
double require_unit_interval(double v, const char* name,
                             std::source_location loc = std::source_location::current());

/// Requires a count (sample count, element count, ...) to be non-zero.
std::size_t require_nonzero(std::size_t v, const char* name,
                            std::source_location loc = std::source_location::current());

}  // namespace milback
