#include "dvf/dvf/calculator.hpp"

#include <atomic>
#include <cmath>
#include <iterator>
#include <new>
#include <optional>
#include <utility>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/units.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/parallel/parallel_for.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf {

namespace {

/// One counter per taxonomy kind, so dashboards can alarm on e.g. a burst of
/// deadline_exceeded without parsing messages. Cold path: only touched when
/// an evaluation fails. Each failed public calculator call counts once.
void count_eval_error(ErrorKind kind) {
  if (!obs::enabled()) {
    return;
  }
  static const obs::Counter counters[] = {
      obs::counter("dvf.eval_errors.domain_error"),
      obs::counter("dvf.eval_errors.overflow"),
      obs::counter("dvf.eval_errors.non_finite"),
      obs::counter("dvf.eval_errors.resource_limit"),
      obs::counter("dvf.eval_errors.deadline_exceeded"),
      obs::counter("dvf.eval_errors.io_error"),
  };
  const auto index = static_cast<std::size_t>(kind);
  if (index < std::size(counters)) {
    counters[index].add();
  }
}

template <typename T>
Result<T> counted(Result<T> result) {
  if (!result.ok()) {
    count_eval_error(result.error().kind);
  }
  return result;
}

}  // namespace

const StructureDvf* ApplicationDvf::find(const std::string& name) const {
  for (const auto& s : structures) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

DvfCalculator::DvfCalculator(Machine machine) : machine_(std::move(machine)) {}

Result<double> DvfCalculator::try_main_memory_accesses(
    const DataStructureSpec& ds) const {
  return counted(try_estimate_accesses(
      std::span<const PatternSpec>(ds.patterns), machine_.llc, budget_));
}

Result<StructureDvf> DvfCalculator::eval_structure(
    const DataStructureSpec& ds, double exec_time_seconds) const {
  if (!std::isfinite(exec_time_seconds)) {
    return EvalError{ErrorKind::kNonFinite, "execution time is not finite"};
  }
  DVF_EVAL_REQUIRE(exec_time_seconds >= 0.0, "execution time must be >= 0");
  DVF_EVAL_REQUIRE(ds.size_bytes > 0, "data structure size must be positive");

  StructureDvf result;
  result.name = ds.name;
  result.size_bytes = static_cast<double>(ds.size_bytes);
  DVF_TRY_ASSIGN(n_ha,
                 try_estimate_accesses(
                     std::span<const PatternSpec>(ds.patterns), machine_.llc,
                     budget_));
  result.n_ha = n_ha;
  DVF_TRY_ASSIGN(n_error,
                 finite_or_error(expected_errors(machine_.memory.fit(),
                                                 exec_time_seconds,
                                                 result.size_bytes),
                                 "N_error (FIT * T * S_d)"));
  result.n_error = n_error;
  DVF_TRY_ASSIGN(dvf_value, finite_or_error(result.n_error * result.n_ha,
                                            "structure DVF (Eq. 1)"));
  result.dvf = dvf_value;
  return result;
}

Result<StructureDvf> DvfCalculator::try_for_structure(
    const DataStructureSpec& ds, double exec_time_seconds) const {
  return counted(eval_structure(ds, exec_time_seconds));
}

Result<ApplicationDvf> DvfCalculator::try_for_model(
    const ModelSpec& model) const {
  if (!model.exec_time_seconds.has_value()) {
    return counted<ApplicationDvf>(EvalError{
        ErrorKind::kDomainError,
        "model '" + model.name +
            "' has no execution time; measure the kernel or set one in the "
            "model"});
  }
  return try_for_model(model, *model.exec_time_seconds);
}

Result<ApplicationDvf> DvfCalculator::try_for_model(
    const ModelSpec& model, double exec_time_seconds) const {
  try {
  const obs::ScopedSpan span("dvf.for_model");
  if (obs::enabled()) {
    static const obs::Counter models = obs::counter("dvf.models_evaluated");
    static const obs::Counter structures =
        obs::counter("dvf.structures_evaluated");
    models.add();
    structures.add(model.structures.size());
  }
  ApplicationDvf app;
  app.model_name = model.name;
  app.machine_name = machine_.name;
  app.exec_time_seconds = exec_time_seconds;
  app.structures.resize(model.structures.size());

  // Lowest failing structure index, or SIZE_MAX while none failed. The
  // parallel path races on it with a min-CAS, so the reported error is the
  // same one the serial path would report, regardless of thread timing.
  std::atomic<std::size_t> first_error_index{~std::size_t{0}};
  std::vector<std::optional<EvalError>> errors(model.structures.size());

  const auto evaluate_one = [&](std::size_t i) {
    auto structure_result =
        eval_structure(model.structures[i], exec_time_seconds);
    if (structure_result.ok()) {
      app.structures[i] = *std::move(structure_result);
      return;
    }
    errors[i] = std::move(structure_result).error();
    std::size_t prev = first_error_index.load(std::memory_order_relaxed);
    while (i < prev && !first_error_index.compare_exchange_weak(
                           prev, i, std::memory_order_relaxed)) {
    }
  };

  // Structure count first: resolving a default thread count can read sysfs
  // (hardware_concurrency), which small models must never pay for.
  if (model.structures.size() >= kParallelStructureThreshold &&
      parallel::resolve_thread_count(threads_) > 1) {
    // Per-structure evaluations are independent; fan them out and keep the
    // Eq. 2 summation in model order below, so the result matches the
    // serial path bit for bit.
    parallel::parallel_for(parallel::ThreadPool::global(),
                           model.structures.size(),
                           [&](std::uint64_t i) {
                             evaluate_one(static_cast<std::size_t>(i));
                           },
                           /*grain=*/4);
  } else {
    for (std::size_t i = 0; i < model.structures.size(); ++i) {
      evaluate_one(i);
      if (errors[i].has_value()) {
        break;  // serial path can stop at the first failure
      }
    }
  }

  const std::size_t failed = first_error_index.load(std::memory_order_relaxed);
  if (failed != ~std::size_t{0}) {
    EvalError err = std::move(*errors[failed]);
    err.message = "structure '" + model.structures[failed].name + "': " +
                  err.message;
    count_eval_error(err.kind);
    return err;
  }

  math::KahanSum total;
  for (const StructureDvf& s : app.structures) {
    total.add(s.dvf);  // Eq. 2
  }
  DVF_TRY_ASSIGN(total_value,
                 counted(finite_or_error(total.value(),
                                         "application DVF (Eq. 2)")));
  app.total = total_value;
  return app;
  } catch (const std::bad_alloc&) {
    // Allocation failure degrades into the classified taxonomy like every
    // other resource exhaustion: callers (serve, campaigns) shed one
    // evaluation instead of dying on an uncaught bad_alloc.
    EvalError err{ErrorKind::kResourceLimit,
                  "model '" + model.name +
                      "': evaluation allocation failed (out of memory)"};
    count_eval_error(err.kind);
    return err;
  }
}

}  // namespace dvf
