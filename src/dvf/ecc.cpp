#include "dvf/dvf/ecc.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "dvf/common/error.hpp"

namespace dvf {

EccTradeoffExplorer::EccTradeoffExplorer(Machine machine, ModelSpec model)
    : machine_(std::move(machine)), model_(std::move(model)) {
  if (!model_.exec_time_seconds.has_value()) {
    throw SemanticError("ECC trade-off study needs a model with an execution "
                        "time");
  }
}

Result<std::vector<EccTradeoffPoint>> EccTradeoffExplorer::try_sweep(
    const EccSweepConfig& config) const {
  DVF_EVAL_REQUIRE(std::isfinite(config.step) && config.step > 0.0,
                   "sweep step must be positive");
  DVF_EVAL_REQUIRE(std::isfinite(config.max_degradation) &&
                       config.max_degradation >= 0.0,
                   "max degradation must be non-negative");
  DVF_EVAL_REQUIRE(std::isfinite(config.full_coverage_degradation) &&
                       config.full_coverage_degradation > 0.0,
                   "full-coverage degradation must be positive");
  DVF_EVAL_REQUIRE(std::isfinite(config.raw_fit),
                   "raw FIT must be finite");

  // A denormal step over the default 0..0.30 range would ask for ~10^307
  // points; bound the count before looping. The +1e-12 epsilon matches the
  // loop condition below.
  const double expected_points =
      std::floor((config.max_degradation + 1e-12) / config.step) + 1.0;
  if (!(expected_points <= static_cast<double>(kMaxSweepPoints))) {
    return EvalError{ErrorKind::kResourceLimit,
                     "ECC sweep would produce " +
                         std::to_string(expected_points) + " points (cap " +
                         std::to_string(kMaxSweepPoints) +
                         "); increase the step"};
  }

  const double protected_fit = fit_rate(config.scheme);
  const double base_time = *model_.exec_time_seconds;

  std::vector<EccTradeoffPoint> points;
  for (double d = 0.0; d <= config.max_degradation + 1e-12; d += config.step) {
    EccTradeoffPoint pt;
    pt.degradation = d;
    pt.coverage = std::min(1.0, d / config.full_coverage_degradation);
    pt.effective_fit = config.raw_fit * (1.0 - pt.coverage) +
                       protected_fit * pt.coverage;
    // MemoryModel rejects non-positive FIT by throwing; keep that failure
    // classified instead (a negative raw_fit can blend below zero).
    DVF_EVAL_REQUIRE(pt.effective_fit > 0.0,
                     "ECC sweep: blended FIT is not positive at degradation " +
                         std::to_string(d));

    Machine m(machine_.name, machine_.llc, MemoryModel(pt.effective_fit));
    DvfCalculator calc(std::move(m));
    calc.set_budget(budget_);
    auto model_result = calc.try_for_model(model_, base_time * (1.0 + d));
    if (!model_result.ok()) {
      EvalError err = std::move(model_result).error();
      err.message = "ECC sweep at degradation " + std::to_string(d) + ": " +
                    err.message;
      return err;
    }
    pt.dvf = model_result.value().total;
    points.push_back(pt);
  }
  return points;
}

double EccTradeoffExplorer::optimal_degradation(
    const std::vector<EccTradeoffPoint>& points) {
  DVF_CHECK_MSG(!points.empty(), "sweep produced no points");
  const auto best = std::min_element(
      points.begin(), points.end(),
      [](const EccTradeoffPoint& a, const EccTradeoffPoint& b) {
        return a.dvf < b.dvf;
      });
  return best->degradation;
}

}  // namespace dvf
