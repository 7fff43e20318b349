// The DVF calculator: Eq. 1 (per data structure) and Eq. 2 (application).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/dvf/model_spec.hpp"
#include "dvf/machine/machine.hpp"

namespace dvf {

/// DVF of one data structure, with the intermediate terms of Eq. 1 exposed
/// for reporting: DVF_d = N_error * N_ha = FIT * T * S_d * N_ha.
struct StructureDvf {
  std::string name;
  double size_bytes = 0.0;   ///< S_d
  double n_ha = 0.0;         ///< estimated main-memory accesses
  double n_error = 0.0;      ///< FIT * T * S_d (unit-converted)
  double dvf = 0.0;          ///< N_error * N_ha
};

/// DVF of an application (Eq. 2): the per-structure results plus their sum.
struct ApplicationDvf {
  std::string model_name;
  std::string machine_name;
  double exec_time_seconds = 0.0;
  std::vector<StructureDvf> structures;
  double total = 0.0;  ///< DVF_a

  /// Per-structure lookup (nullptr when absent).
  [[nodiscard]] const StructureDvf* find(const std::string& name) const;
};

/// Eq. 1's budget-free structure preconditions, which the calculator checks
/// before estimating any phase: T finite (else non_finite) and T >= 0, then
/// S_d > 0 (both domain_error). With T absent only S_d is checked.
[[nodiscard]] Result<void> try_structure_preconditions(
    const DataStructureSpec& ds, std::optional<double> exec_time_seconds);

/// Evaluates models against one machine. Stateless apart from the machine;
/// safe to share across threads.
class DvfCalculator {
 public:
  explicit DvfCalculator(Machine machine);

  /// Attaches a resource budget applied to every evaluation through this
  /// calculator. The budget must outlive the calculator's use; nullptr
  /// restores the process-default limits. EvalBudget is thread-safe, so
  /// calculators sharing one budget may run concurrently.
  void set_budget(EvalBudget* budget) noexcept { budget_ = budget; }
  [[nodiscard]] EvalBudget* budget() const noexcept { return budget_; }

  // Every evaluation returns a classified EvalError instead of throwing.
  // Errors from a structure's evaluation are annotated with the structure's
  // name.

  /// N_ha of one data structure on this machine's LLC.
  [[nodiscard]] Result<double> try_main_memory_accesses(
      const DataStructureSpec& ds) const;

  /// Eq. 1. `exec_time_seconds` is T; a negative T is a domain_error.
  [[nodiscard]] Result<StructureDvf> try_for_structure(
      const DataStructureSpec& ds, double exec_time_seconds) const;

  /// Eq. 2 over all structures of the model, evaluated in model order; the
  /// first failing structure's error is returned. The model must carry an
  /// execution time (measured or modeled); a missing one is a domain_error.
  [[nodiscard]] Result<ApplicationDvf> try_for_model(
      const ModelSpec& model) const;

  /// As above but overriding T (used by studies that sweep time).
  [[nodiscard]] Result<ApplicationDvf> try_for_model(
      const ModelSpec& model, double exec_time_seconds) const;

  [[nodiscard]] const Machine& machine() const noexcept { return machine_; }

 private:
  /// Uncounted core of try_for_structure, shared with try_for_model so the
  /// obs error counters tick exactly once per failed public call.
  [[nodiscard]] Result<StructureDvf> eval_structure(
      const DataStructureSpec& ds, double exec_time_seconds) const;

  Machine machine_;
  EvalBudget* budget_ = nullptr;
};

}  // namespace dvf
