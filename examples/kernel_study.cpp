// kernel_study: the full methodology on one kernel, end to end —
// (1) run the instrumented kernel and count its raw references,
// (2) replay them through the LLC simulator (the verification reference),
// (3) evaluate the kernel's analytical self-description (CGPMAC),
// (4) compute per-structure DVF from the measured runtime.
//
//   build/examples/kernel_study [kernel]     (default NB)
#include <iostream>
#include <string>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/math.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/report/table.hpp"

int main(int argc, char** argv) {
  const std::string wanted = argc > 1 ? argv[1] : "NB";
  auto suite = dvf::kernels::make_extended_suite();
  dvf::kernels::KernelCase* kernel = nullptr;
  for (auto& candidate : suite) {
    if (candidate->name() == wanted) {
      kernel = candidate.get();
    }
  }
  if (kernel == nullptr) {
    std::cerr << "unknown kernel '" << wanted
              << "' (expected VM|CG|NB|MG|FT|MC|CGS)\n";
    return 1;
  }

  const dvf::CacheConfig cache = dvf::caches::small_verification();

  // (1) raw reference counts.
  dvf::CountingRecorder counts;
  kernel->run_counting(counts);

  // (2) simulate the LLC.
  dvf::CacheSimulator sim(cache);
  kernel->run_traced(sim);

  // (3) + (4): analytical model and DVF.
  const double seconds = kernel->run_timed();
  dvf::ModelSpec spec = kernel->model_spec();
  spec.exec_time_seconds = seconds;
  const dvf::DvfCalculator calc(dvf::Machine::with_cache(cache));
  const dvf::ApplicationDvf app = calc.try_for_model(spec).value_or_throw();

  std::cout << dvf::banner("kernel study: " + kernel->name() + " (" +
                           kernel->method_class() + ")");
  std::cout << "cache " << cache.describe() << ", T = " << dvf::num(seconds, 3)
            << " s\n\n";

  dvf::Table table({"structure", "references", "sim_misses", "model_N_ha",
                    "rel_err_%", "DVF"});
  for (const auto& ds : spec.structures) {
    const auto id = kernel->registry().find(ds.name);
    if (!id.has_value()) {
      continue;
    }
    const auto sim_stats = sim.stats(*id);
    const double estimate = dvf::try_estimate_accesses(
        std::span<const dvf::PatternSpec>(ds.patterns), cache).value_or_throw();
    const auto* result = app.find(ds.name);
    table.add_row(
        {ds.name, dvf::num(static_cast<double>(counts.counts(*id).total())),
         dvf::num(static_cast<double>(sim_stats.misses)), dvf::num(estimate),
         dvf::num(100.0 * dvf::math::relative_error(
                              estimate, static_cast<double>(sim_stats.misses)),
                  3),
         dvf::num(result != nullptr ? result->dvf : 0.0)});
  }
  std::cout << table << "\napplication DVF_a = " << dvf::num(app.total)
            << "\n";
  return 0;
}
