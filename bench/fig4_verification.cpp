// Figure 4 (a–f): verification of the CGPMAC estimates of main-memory
// accesses against the trace-driven LRU cache simulator, on the small and
// large verification caches (Table IV) and the Table V input sizes.
//
// Output: per kernel, per data structure, per cache — simulated misses,
// simulated misses+writebacks, the analytical estimate, and the relative
// error against the miss count (the paper reports <= 15%).
#include <iostream>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/math.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/report/table.hpp"

namespace {

void verify_on(dvf::kernels::KernelCase& kernel, const dvf::CacheConfig& cache,
               dvf::Table& table) {
  dvf::CacheSimulator sim(cache);
  kernel.run_traced(sim);
  const dvf::ModelSpec spec = kernel.model_spec();

  for (const dvf::DataStructureSpec& ds : spec.structures) {
    const auto id = kernel.registry().find(ds.name);
    if (!id.has_value()) {
      continue;
    }
    const dvf::CacheStats stats = sim.stats(*id);
    const double estimate = dvf::try_estimate_accesses(
        std::span<const dvf::PatternSpec>(ds.patterns), cache).value_or_throw();
    const double err = dvf::math::relative_error(
        estimate, static_cast<double>(stats.misses));
    table.add_row({kernel.name(), ds.name, cache.name(),
                   dvf::num(static_cast<double>(stats.misses)),
                   dvf::num(static_cast<double>(stats.main_memory_accesses())),
                   dvf::num(estimate), dvf::num(100.0 * err, 3)});
  }
}

}  // namespace

int main() {
  std::cout << dvf::banner(
      "Figure 4: model verification — estimated vs simulated main-memory "
      "accesses");
  std::cout << "Inputs: Table V; caches: Table IV (verification rows)\n";
  std::cout << "  " << dvf::caches::small_verification().describe() << "\n";
  std::cout << "  " << dvf::caches::large_verification().describe() << "\n\n";

  dvf::Table table({"kernel", "structure", "cache", "sim_misses",
                    "sim_misses+wb", "model_estimate", "rel_err_%"});

  for (const auto& cache : {dvf::caches::small_verification(),
                            dvf::caches::large_verification()}) {
    auto suite = dvf::kernels::make_verification_suite();
    for (auto& kernel : suite) {
      verify_on(*kernel, cache, table);
    }
  }

  std::cout << table;
  dvf::maybe_export_csv("fig4_verification", table);
  std::cout << "\nPaper reference: estimation error within 15% in all cases "
               "(Fig. 4).\n";
  return 0;
}
