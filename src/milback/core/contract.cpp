#include "milback/core/contract.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace milback {

namespace {

std::string format_message(const char* kind, const char* predicate,
                           const std::string& message, const char* file, int line) {
  std::ostringstream os;
  os << "milback " << kind << " violated: " << message << " [predicate: " << predicate
     << "] at " << file << ":" << line;
  return os.str();
}

std::atomic<contract::Handler> g_handler{&contract::throwing_handler};

}  // namespace

ContractViolation::ContractViolation(const char* kind, const char* predicate,
                                     const std::string& message, const char* file,
                                     int line)
    : std::invalid_argument(format_message(kind, predicate, message, file, line)),
      kind_(kind),
      predicate_(predicate),
      file_(file),
      line_(line) {}

namespace contract {

Handler set_handler(Handler h) noexcept {
  return g_handler.exchange(h != nullptr ? h : &throwing_handler);
}

Handler handler() noexcept { return g_handler.load(); }

void throwing_handler(const ContractViolation& v) { throw v; }

// milback-analyze: no-contract(terminal failure path; must not itself assert)
void aborting_handler(const ContractViolation& v) {
  std::fprintf(stderr, "%s\n", v.what());
  std::fflush(stderr);
  std::abort();
}

// milback-analyze: no-contract(contract machinery core; a contract check here would recurse)
void violate(const char* kind, const char* predicate, const std::string& message,
             const char* file, int line) {
  const ContractViolation v(kind, predicate, message, file, line);
  g_handler.load()(v);
  // A handler that returns would let a violated contract continue silently;
  // fail fast instead.
  std::fprintf(stderr, "milback contract handler returned; aborting\n%s\n", v.what());
  std::fflush(stderr);
  std::abort();
}

}  // namespace contract

namespace {

std::string describe(const char* name, double v, const char* requirement) {
  std::ostringstream os;
  os << name << " must be " << requirement << " (got " << v << ")";
  return os.str();
}

[[noreturn, gnu::cold]] void violate_guard(const std::string& predicate,
                                           const std::string& message,
                                           const std::source_location& loc) {
  contract::violate("precondition", predicate.c_str(), message, loc.file_name(),
                    int(loc.line()));
}

}  // namespace

namespace contract {

void finite_violated(double v, const char* name, const std::source_location& loc) {
  violate_guard(std::string("is_finite(") + name + ")", describe(name, v, "finite"), loc);
}

void positive_violated(double v, const char* name, const std::source_location& loc) {
  violate_guard(std::string(name) + " > 0", describe(name, v, "finite and > 0"), loc);
}

void non_negative_violated(double v, const char* name, const std::source_location& loc) {
  violate_guard(std::string(name) + " >= 0", describe(name, v, "finite and >= 0"), loc);
}

}  // namespace contract

// milback-analyze: no-contract(guard primitive: reports via violate_guard rather than recursing)
double require_in_range(double v, double lo, double hi, const char* name,
                        std::source_location loc) {
  if (!std::isfinite(v) || v < lo || v > hi) {
    std::ostringstream pred;
    pred << lo << " <= " << name << " <= " << hi;
    std::ostringstream req;
    req << "in [" << lo << ", " << hi << "]";
    violate_guard(pred.str(), describe(name, v, req.str().c_str()), loc);
  }
  return v;
}

double require_unit_interval(double v, const char* name, std::source_location loc) {
  return require_in_range(v, 0.0, 1.0, name, loc);
}

std::size_t require_nonzero(std::size_t v, const char* name, std::source_location loc) {
  if (v == 0) {
    violate_guard(std::string(name) + " > 0",
                  std::string(name) + " must be non-zero (got 0)", loc);
  }
  return v;
}

}  // namespace milback
