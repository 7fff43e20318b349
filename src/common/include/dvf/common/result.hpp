// Total evaluation: dvf::Result<T> and the structured evaluation-error
// taxonomy.
//
// The analytical evaluators (pattern models, DvfCalculator, the cache/ECC/
// weighted layers, template expansion) have one form each: a `try_*`
// function returning Result<T> that NEVER throws and never yields silent
// NaN/Inf. A caller that wants an exception unwraps with value_or_throw().
// The taxonomy matches the failure modes a multi-tenant evaluation service
// must distinguish:
//
//   domain_error       a documented precondition was violated (bad spec)
//   overflow           arithmetic left the representable range (exp/integer)
//   non_finite         NaN/Inf appeared where a finite value is required
//   resource_limit     an expansion/reference cap was exceeded (EvalBudget)
//   deadline_exceeded  the cooperative wall-clock deadline passed
//   io_error           a durability/transport syscall failed (write, flush,
//                      rename, socket) — surfaced instead of silently dropped
//
// Every model boundary re-checks finiteness, so a non-finite value can never
// escape one layer and poison the next silently.
#pragma once

#include <cmath>
#include <string>
#include <utility>
#include <variant>

#include "dvf/common/error.hpp"

namespace dvf {

/// The structured evaluation-error taxonomy (see file comment).
enum class ErrorKind {
  kDomainError,
  kOverflow,
  kNonFinite,
  kResourceLimit,
  kDeadlineExceeded,
  kIoError,
};

/// Stable snake_case label ("domain_error", ...), used in messages, obs
/// counter names and the fuzz harness's reports.
[[nodiscard]] constexpr const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kDomainError: return "domain_error";
    case ErrorKind::kOverflow: return "overflow";
    case ErrorKind::kNonFinite: return "non_finite";
    case ErrorKind::kResourceLimit: return "resource_limit";
    case ErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::kIoError: return "io_error";
  }
  return "unknown";
}

/// One classified evaluation failure.
struct EvalError {
  ErrorKind kind = ErrorKind::kDomainError;
  std::string message;

  /// "non_finite: streaming produced inf (element_count=...)".
  [[nodiscard]] std::string describe() const {
    return std::string(to_string(kind)) + ": " + message;
  }
};

/// Thrown by value_or_throw() for error kinds that have no dedicated
/// exception type (overflow, non_finite, resource_limit, deadline_exceeded,
/// io_error). Domain errors throw InvalidArgumentError instead.
class EvaluationError : public Error {
 public:
  explicit EvaluationError(EvalError error)
      : Error(error.describe()), kind_(error.kind) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

/// Minimal expected-style result: either a T or an EvalError. Deliberately
/// small — no monadic combinators beyond what the evaluators need — so the
/// header stays cheap to include from every model.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}                // NOLINT
  Result(EvalError error) : state_(std::move(error)) {}        // NOLINT

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(state_);
  }
  explicit operator bool() const noexcept { return ok(); }

  /// Value access. Precondition: ok().
  [[nodiscard]] const T& value() const& { return std::get<T>(state_); }
  [[nodiscard]] T& value() & { return std::get<T>(state_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(state_)); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T&& operator*() && { return std::move(*this).value(); }

  /// Error access. Precondition: !ok().
  [[nodiscard]] const EvalError& error() const& {
    return std::get<EvalError>(state_);
  }
  [[nodiscard]] EvalError&& error() && {
    return std::get<EvalError>(std::move(state_));
  }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? value() : std::move(fallback);
  }

  /// Unwraps, rethrowing the taxonomy as exceptions: domain_error →
  /// InvalidArgumentError, everything else → EvaluationError.
  T value_or_throw() && {
    if (ok()) {
      return std::get<T>(std::move(state_));
    }
    if (error().kind == ErrorKind::kDomainError) {
      throw InvalidArgumentError(error().message);
    }
    throw EvaluationError(std::move(*this).error());
  }

 private:
  std::variant<T, EvalError> state_;
};

/// Result<void>: success carries no value.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(EvalError error) : error_(std::move(error)), failed_(true) {}  // NOLINT

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] const EvalError& error() const& { return error_; }
  [[nodiscard]] EvalError&& error() && { return std::move(error_); }

  void value_or_throw() && {
    if (failed_) {
      if (error_.kind == ErrorKind::kDomainError) {
        throw InvalidArgumentError(error_.message);
      }
      throw EvaluationError(std::move(error_));
    }
  }

 private:
  EvalError error_;
  bool failed_ = false;
};

/// Classifies a computed double at a model boundary: finite values pass
/// through; Inf is an overflow (the usual way exp/pow/accumulation leave the
/// range), NaN is non_finite. `what` names the quantity for the message.
[[nodiscard]] inline Result<double> finite_or_error(double value,
                                                    const char* what) {
  if (std::isfinite(value)) {
    return value;
  }
  if (std::isnan(value)) {
    return EvalError{ErrorKind::kNonFinite,
                     std::string(what) + " evaluated to NaN"};
  }
  return EvalError{ErrorKind::kOverflow,
                   std::string(what) + " overflowed to " +
                       (value > 0 ? "+inf" : "-inf")};
}

}  // namespace dvf

/// Propagates the error of a Result-returning expression; binds the value
/// otherwise. Usage: DVF_TRY_ASSIGN(x, try_compute()); uses `x` below.
#define DVF_TRY_ASSIGN(var, expr)                  \
  auto var##_result = (expr);                      \
  if (!var##_result.ok()) {                        \
    return std::move(var##_result).error();        \
  }                                                \
  auto var = *std::move(var##_result)

/// Propagates the error of a Result<void>-returning expression.
#define DVF_TRY_CHECK(expr)                        \
  do {                                             \
    auto check_result_ = (expr);                   \
    if (!check_result_.ok()) {                     \
      return std::move(check_result_).error();     \
    }                                              \
  } while (false)

/// Returns a domain_error unless `cond` holds.
#define DVF_EVAL_REQUIRE(cond, msg)                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      return ::dvf::EvalError{::dvf::ErrorKind::kDomainError, (msg)};       \
    }                                                                       \
  } while (false)
