#include "dvf/dvf/protection.hpp"

#include <limits>
#include <utility>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/units.hpp"

namespace dvf {

ProtectionMechanism ProtectionMechanism::none() {
  return {"none", 1.0, 0.0};
}
ProtectionMechanism ProtectionMechanism::secded(double access_overhead) {
  return {"secded", fit_rate(EccScheme::kSecDed) / fit_rate(EccScheme::kNone),
          access_overhead};
}
ProtectionMechanism ProtectionMechanism::chipkill(double access_overhead) {
  return {"chipkill",
          fit_rate(EccScheme::kChipkill) / fit_rate(EccScheme::kNone),
          access_overhead};
}
ProtectionMechanism ProtectionMechanism::software_tmr(double access_overhead) {
  // Triple redundancy detects and outvotes single errors on every update;
  // residual vulnerability comes from double faults — model as a strong
  // but not chipkill-grade factor.
  return {"software-tmr", 1e-3, access_overhead};
}

ProtectionPlanner::ProtectionPlanner(Machine machine, ModelSpec model,
                                     std::vector<ProtectionMechanism> mechanisms)
    : machine_(std::move(machine)),
      model_(std::move(model)),
      mechanisms_(std::move(mechanisms)) {
  if (!model_.exec_time_seconds.has_value()) {
    throw SemanticError("protection planning needs a model with an execution "
                        "time");
  }
  DVF_CHECK_MSG(!mechanisms_.empty(), "need at least one mechanism");
  DVF_CHECK_MSG(!model_.structures.empty(), "model has no data structures");
  for (const ProtectionMechanism& m : mechanisms_) {
    DVF_CHECK_MSG(m.fit_factor > 0.0, "fit_factor must be positive");
    DVF_CHECK_MSG(m.access_overhead >= 0.0,
                  "access overhead must be non-negative");
  }

  const DvfCalculator calc(machine_);
  double total_traffic = 0.0;
  for (const DataStructureSpec& ds : model_.structures) {
    n_ha_.push_back(calc.try_main_memory_accesses(ds).value_or_throw());
    total_traffic += n_ha_.back();
  }
  for (const double n : n_ha_) {
    shares_.push_back(total_traffic == 0.0 ? 0.0 : n / total_traffic);
  }
  baseline_dvf_ = calc.try_for_model(model_).value_or_throw().total;
}

ProtectionPlan ProtectionPlanner::evaluate(
    const std::vector<std::size_t>& assignment) const {
  DVF_CHECK_MSG(assignment.size() == model_.structures.size(),
                "assignment size must match the structure count");

  // Application slowdown: each protected structure contributes its
  // mechanism's access overhead weighted by its main-memory-traffic share.
  double overhead = 0.0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    DVF_CHECK_MSG(assignment[i] < mechanisms_.size(),
                  "mechanism index out of range");
    overhead += mechanisms_[assignment[i]].access_overhead * shares_[i];
  }
  const double time = *model_.exec_time_seconds * (1.0 + overhead);

  // Per-structure DVF under the plan: the protected structure's FIT shrinks
  // by the mechanism's factor, but EVERY structure's exposure grows with
  // the slowed-down run — the structure-granular version of the Fig. 7
  // tension.
  ProtectionPlan plan;
  plan.time_overhead = overhead;
  plan.baseline_dvf = baseline_dvf_;
  math::KahanSum total;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const ProtectionMechanism& mech = mechanisms_[assignment[i]];
    const DataStructureSpec& ds = model_.structures[i];
    const double fit = machine_.memory.fit() * mech.fit_factor;
    const double n_error = expected_errors(
        fit, time, static_cast<double>(ds.size_bytes));
    const double dvf = n_error * n_ha_[i];
    plan.choices.push_back({ds.name, mech.name, dvf});
    total.add(dvf);
  }
  plan.total_dvf = total.value();
  return plan;
}

template <typename Visit>
void ProtectionPlanner::for_each_assignment(Visit&& visit) const {
  const std::size_t n = model_.structures.size();
  const std::size_t m = mechanisms_.size();
  std::vector<std::size_t> assignment(n, 0);
  while (true) {
    visit(assignment);
    std::size_t pos = 0;
    while (pos < n && ++assignment[pos] == m) {
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == n) {
      return;
    }
  }
}

ProtectionPlan ProtectionPlanner::optimize(double max_time_overhead) const {
  DVF_CHECK_MSG(max_time_overhead >= 0.0, "budget must be non-negative");
  ProtectionPlan best;
  best.total_dvf = std::numeric_limits<double>::infinity();
  for_each_assignment([&](const std::vector<std::size_t>& assignment) {
    const ProtectionPlan plan = evaluate(assignment);
    if (plan.time_overhead <= max_time_overhead + 1e-12 &&
        plan.total_dvf < best.total_dvf) {
      best = plan;
    }
  });
  return best;  // the all-none assignment always fits the budget
}

std::optional<ProtectionPlan> ProtectionPlanner::cheapest_meeting_target(
    double dvf_target) const {
  DVF_CHECK_MSG(dvf_target > 0.0, "DVF target must be positive");
  std::optional<ProtectionPlan> best;
  for_each_assignment([&](const std::vector<std::size_t>& assignment) {
    const ProtectionPlan plan = evaluate(assignment);
    if (plan.total_dvf > dvf_target) {
      return;
    }
    if (!best.has_value() ||
        plan.time_overhead < best->time_overhead - 1e-12 ||
        (plan.time_overhead < best->time_overhead + 1e-12 &&
         plan.total_dvf < best->total_dvf)) {
      best = plan;
    }
  });
  return best;
}

}  // namespace dvf
