// The §V-B study: quantifying a hardware protection mechanism's effect on
// DVF and exploring the performance/resilience trade-off (Fig. 7).
//
// Modeling assumption (documented in DESIGN.md): the paper does not state
// the mechanism by which a *small* performance sacrifice already lowers DVF
// and the minimum lands near 5% degradation. We model ECC protection
// coverage as growing linearly with the spent performance budget until full
// coverage at `full_coverage_degradation`:
//   c(d)    = min(1, d / d_full)
//   FIT(d)  = FIT_raw * (1 - c(d)) + FIT_ecc * c(d)
//   T(d)    = T * (1 + d)
//   DVF(d)  = FIT(d) * T(d) * S_d * N_ha  summed over structures
// which yields the published curve shape: a steep drop while coverage grows,
// a minimum at d_full, then a slow linear rise as exposure time dominates.
#pragma once

#include <vector>

#include "dvf/common/result.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/dvf/model_spec.hpp"
#include "dvf/machine/machine.hpp"

namespace dvf {

/// One point of the Fig. 7 sweep.
struct EccTradeoffPoint {
  double degradation = 0.0;  ///< performance loss, e.g. 0.05 for 5%
  double coverage = 0.0;     ///< fraction of memory protected at this budget
  double effective_fit = 0.0;
  double dvf = 0.0;          ///< application DVF at this point
};

/// Sweep configuration.
struct EccSweepConfig {
  EccScheme scheme = EccScheme::kSecDed;
  double max_degradation = 0.30;           ///< paper sweeps 0..30%
  double step = 0.01;
  double full_coverage_degradation = 0.05; ///< where coverage saturates
  double raw_fit = fit_rate(EccScheme::kNone);
};

/// Explores DVF as a function of the ECC performance budget for a model on
/// a machine (the machine's own FIT is replaced by the sweep's blend).
class EccTradeoffExplorer {
 public:
  /// Hard cap on sweep points: a tiny (or denormal) step over a wide range
  /// must degrade into a classified resource_limit error, not an unbounded
  /// loop. Far above any plottable sweep (the paper uses 31 points).
  static constexpr std::size_t kMaxSweepPoints = 100000;

  EccTradeoffExplorer(Machine machine, ModelSpec model);

  /// Attaches a resource budget applied to every per-point evaluation of the
  /// sweep (the budget must outlive the explorer's use; nullptr restores the
  /// process-default limits).
  void set_budget(EvalBudget* budget) noexcept { budget_ = budget; }

  /// Runs the sweep; the model must carry an execution time. domain_error
  /// for an invalid config (including non-finite step/bounds),
  /// resource_limit when the step would produce more than kMaxSweepPoints
  /// points, and any per-point evaluation error annotated with the
  /// degradation at which it occurred.
  [[nodiscard]] Result<std::vector<EccTradeoffPoint>> try_sweep(
      const EccSweepConfig& config) const;

  /// Degradation of the sweep's minimum-DVF point.
  [[nodiscard]] static double optimal_degradation(
      const std::vector<EccTradeoffPoint>& points);

 private:
  Machine machine_;
  ModelSpec model_;
  EvalBudget* budget_ = nullptr;
};

}  // namespace dvf
