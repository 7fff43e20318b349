// The DVF calculator: Eq. 1 (per data structure) and Eq. 2 (application).
#pragma once

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

/// Evaluates models against one machine. Stateless apart from the machine;
/// safe to share across threads.
class DvfCalculator {
 public:
  /// Models with at least this many structures are evaluated in parallel
  /// (per-structure analytics are independent); smaller models stay serial
  /// so tiny evaluations never pay scheduling overhead.
  static constexpr std::size_t kParallelStructureThreshold = 32;

  explicit DvfCalculator(Machine machine);

  /// Caps the worker threads used for large models (0 = DVF_THREADS env
  /// var / hardware default, 1 = always serial). Results are bit-identical
  /// for every setting: structures are evaluated independently and summed
  /// in model order.
  void set_threads(unsigned threads) noexcept { threads_ = threads; }

  /// Attaches a resource budget applied to every evaluation through this
  /// calculator. The budget must outlive the calculator's use; nullptr
  /// restores the process-default limits. Shared safely by the parallel
  /// fan-out (EvalBudget is thread-safe).
  void set_budget(EvalBudget* budget) noexcept { budget_ = budget; }
  [[nodiscard]] EvalBudget* budget() const noexcept { return budget_; }

  // Every evaluation returns a classified EvalError instead of throwing.
  // Errors from a structure's evaluation are annotated with the structure's
  // name; the parallel fan-out reports the lowest-index failure
  // deterministically.

  /// N_ha of one data structure on this machine's LLC.
  [[nodiscard]] Result<double> try_main_memory_accesses(
      const DataStructureSpec& ds) const;

  /// Eq. 1. `exec_time_seconds` is T; a negative T is a domain_error.
  [[nodiscard]] Result<StructureDvf> try_for_structure(
      const DataStructureSpec& ds, double exec_time_seconds) const;

  /// Eq. 2 over all structures of the model. The model must carry an
  /// execution time (measured or modeled); a missing one is a domain_error.
  [[nodiscard]] Result<ApplicationDvf> try_for_model(
      const ModelSpec& model) const;

  /// As above but overriding T (used by studies that sweep time).
  [[nodiscard]] Result<ApplicationDvf> try_for_model(
      const ModelSpec& model, double exec_time_seconds) const;

  [[nodiscard]] const Machine& machine() const noexcept { return machine_; }

 private:
  /// Uncounted core of try_for_structure, shared with the model fan-out so
  /// the obs error counters tick exactly once per failed public call.
  [[nodiscard]] Result<StructureDvf> eval_structure(
      const DataStructureSpec& ds, double exec_time_seconds) const;

  Machine machine_;
  unsigned threads_ = 0;
  EvalBudget* budget_ = nullptr;
};

}  // namespace dvf
