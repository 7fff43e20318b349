// sparse_solver: the DVF methodology on a CSR sparse CG solver — the
// kernel family the paper's Table II actually cites for CG (NPB CG is
// sparse). Shows what the dense examples cannot: the indirect gather of
// the search direction p through the column indices, modeled as random
// access with a profiled column-popularity histogram.
//
//   build/examples/sparse_solver [n] [offdiag_per_row]
#include <cstdlib>
#include <iostream>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/math.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/kernels/sparse_cg.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/report/table.hpp"

int main(int argc, char** argv) {
  dvf::kernels::SparseConjugateGradient::Config config;
  config.n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
  config.offdiag_per_row =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  config.max_iterations = 30;

  dvf::kernels::SparseConjugateGradient solver(config);
  std::cout << "CSR sparse CG: n = " << config.n
            << ", nnz = " << solver.nonzeros() << "\n";

  // Solve (timed) and self-describe.
  dvf::NullRecorder null;
  const dvf::kernels::Stopwatch watch;
  solver.run(null);
  const double seconds = watch.seconds();
  std::cout << "solved in " << solver.iterations_run() << " iterations, "
            << dvf::num(seconds, 3) << " s, solution error "
            << dvf::num(solver.solution_error(), 3) << "\n\n";

  dvf::ModelSpec spec = solver.model_spec();
  spec.exec_time_seconds = seconds;

  // Verify the model against the simulator, then report DVF.
  const dvf::CacheConfig cache = dvf::caches::small_verification();
  dvf::CacheSimulator sim(cache);
  solver.reset();
  solver.run(sim);
  sim.flush();

  const dvf::DvfCalculator calc(dvf::Machine::with_cache(cache));
  const dvf::ApplicationDvf app = calc.try_for_model(spec).value_or_throw();

  dvf::Table table({"structure", "pattern", "sim_misses", "model_N_ha",
                    "rel_err_%", "DVF"});
  for (const auto& ds : spec.structures) {
    const auto id = *solver.registry().find(ds.name);
    const double simulated = static_cast<double>(sim.stats(id).misses);
    const double estimate = dvf::try_estimate_accesses(
        std::span<const dvf::PatternSpec>(ds.patterns), cache).value_or_throw();
    std::string kinds;
    for (const auto& pattern : ds.patterns) {
      if (!kinds.empty()) {
        kinds += '+';
      }
      kinds += dvf::pattern_letter(pattern);
    }
    const auto* result = app.find(ds.name);
    table.add_row({ds.name, kinds, dvf::num(simulated), dvf::num(estimate),
                   dvf::num(100.0 * dvf::math::relative_error(estimate,
                                                              simulated),
                            3),
                   dvf::num(result != nullptr ? result->dvf : 0.0)});
  }
  std::cout << table << "\napplication DVF_a = " << dvf::num(app.total)
            << "\n\nThe CSR value/index arrays stream (like the paper's "
               "dense A), while p's\ngather rides the column-popularity "
               "histogram: hub columns stay cached,\ncold columns miss — "
               "the IRM extension at work.\n";
  return 0;
}
