// Cooperative resource guardrails for analytical evaluation.
//
// Adversarial model specs can ask an evaluator for practically unbounded
// work (a template progression with count=2^62, a hypergeometric sum over
// 2^60 support points) or unbounded memory (an expanded reference string of
// 2^40 indices). An EvalBudget bounds three resources cooperatively:
//
//   references  — reference-string positions an evaluator may replay
//   expansion   — elements a template expansion may materialize
//   wall clock  — an absolute deadline, checked at loop checkpoints
//
// Evaluators charge the budget at coarse granularity (per pattern, per
// expansion, per loop chunk — never per memory reference) and return a
// classified resource_limit / deadline_exceeded EvalError when a limit is
// hit, so a guarded evaluation degrades into a typed error instead of a
// hang or an OOM kill. Counters are relaxed atomics: one budget may be
// shared by the parallel fan-out of DvfCalculator::for_model.
//
// Every try_* evaluator accepts `EvalBudget*`; passing nullptr applies the
// process-default limits below (generous enough that no legitimate
// paper-scale model trips them, finite so evaluation stays bounded).
#pragma once

#include <atomic>
#include <cstdint>

#include "dvf/common/result.hpp"

namespace dvf {

/// Limit set of a budget. Zero disables the corresponding limit.
struct EvalLimits {
  /// Reference-string positions replayable per guarded evaluation scope
  /// (default 2^28 ≈ 2.7e8: seconds of work, far above paper-scale models).
  std::uint64_t max_references = std::uint64_t{1} << 28;
  /// Elements a template expansion may materialize (default 2^24 ≈ 1.7e7,
  /// ≈ 128 MiB of indices — a hard cap against expansion bombs).
  std::uint64_t max_expansion = std::uint64_t{1} << 24;
  /// Wall-clock seconds from arm_deadline() to the deadline (0 = none).
  double wall_seconds = 0.0;
};

/// Shared, thread-safe resource meter. Charge methods return a classified
/// EvalError once a limit is exceeded; they never throw.
class EvalBudget {
 public:
  EvalBudget() = default;
  explicit EvalBudget(EvalLimits limits) : limits_(limits) {
    if (limits_.wall_seconds > 0.0) {
      arm_deadline();
    }
  }

  EvalBudget(const EvalBudget&) = delete;
  EvalBudget& operator=(const EvalBudget&) = delete;

  [[nodiscard]] const EvalLimits& limits() const noexcept { return limits_; }

  /// (Re)starts the wall clock: the deadline becomes now + wall_seconds.
  /// No-op when wall_seconds is 0.
  void arm_deadline() noexcept;

  /// Charges `n` reference-string positions against max_references.
  [[nodiscard]] Result<void> charge_references(std::uint64_t n) noexcept;

  /// Charges `n` materialized expansion elements against max_expansion.
  [[nodiscard]] Result<void> charge_expansion(std::uint64_t n) noexcept;

  /// Deadline check for long-running loops; cheap enough for every few
  /// thousand iterations (one steady_clock read when a deadline is armed,
  /// one load otherwise).
  [[nodiscard]] Result<void> check_deadline() noexcept;

  /// Cooperative cancellation: every subsequent charge or deadline check
  /// returns a deadline_exceeded error, regardless of the wall clock. Safe
  /// to call from any thread while evaluators are charging (the daemon's
  /// drain path cancels in-flight requests this way). Irreversible until
  /// reset().
  void cancel() noexcept;
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Wall-clock seconds until the armed deadline: +inf when no deadline is
  /// armed, 0 once it passed (or the budget was cancelled). Used by the
  /// serve daemon for retry-after hints and drain decisions.
  [[nodiscard]] double wall_remaining_seconds() const noexcept;

  /// Resets the meters (not the limits); re-arms the deadline.
  void reset() noexcept;

  [[nodiscard]] std::uint64_t references_used() const noexcept {
    return references_.load(std::memory_order_relaxed);
  }

  /// The budget used when an evaluator is handed nullptr: process-wide,
  /// default limits, no deadline. It meters per charge (each charge is
  /// checked against the cap in isolation, nothing accumulates), so
  /// unrelated evaluations sharing it cannot exhaust each other — the
  /// evaluators charge each loop's total up front, which makes per-charge
  /// checking equivalent to per-evaluation checking for the default case.
  static EvalBudget& process_default() noexcept;

 private:
  EvalBudget(EvalLimits limits, bool per_charge)
      : limits_(limits), per_charge_(per_charge) {}

  EvalLimits limits_;
  bool per_charge_ = false;
  std::atomic<std::uint64_t> references_{0};
  std::atomic<std::uint64_t> expansion_{0};
  std::atomic<std::uint64_t> deadline_ns_{0};  ///< steady-clock ns; 0 = none
  std::atomic<bool> cancelled_{false};
};

/// `budget` if non-null, else EvalBudget::process_default().
[[nodiscard]] EvalBudget& budget_or_default(EvalBudget* budget) noexcept;

}  // namespace dvf
