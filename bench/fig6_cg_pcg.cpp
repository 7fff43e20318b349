// Figure 6: the algorithm-optimization use case (§V-A) — DVF of CG vs
// Jacobi-preconditioned PCG as the problem size grows, on the largest
// Table IV cache.
//
// Expected shape (paper): PCG is slightly MORE vulnerable at small n (same
// runtime, bigger working set), and LESS vulnerable at large n (the
// preconditioner's convergence advantage outweighs the extra footprint).
#include <iostream>

#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/cg.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/report/table.hpp"

namespace {

struct RunResult {
  double seconds = 0.0;
  std::uint64_t iterations = 0;
  double dvf = 0.0;
};

RunResult run_variant(std::uint64_t n, bool preconditioned,
                      const dvf::DvfCalculator& calc) {
  dvf::kernels::ConjugateGradient::Config config;
  config.n = n;
  config.preconditioned = preconditioned;
  dvf::kernels::ConjugateGradient solver(config);

  dvf::NullRecorder null;
  const dvf::kernels::Stopwatch watch;
  solver.run(null);
  RunResult result;
  result.seconds = watch.seconds();
  result.iterations = solver.iterations_run();

  dvf::ModelSpec spec = solver.model_spec();
  spec.exec_time_seconds = result.seconds;
  result.dvf = calc.try_for_model(spec).value_or_throw().total;
  return result;
}

}  // namespace

int main() {
  std::cout << dvf::banner(
      "Figure 6: CG vs PCG — DVF as a function of problem size (use case "
      "V-A)");
  const dvf::DvfCalculator calc(
      dvf::Machine::with_cache(dvf::caches::profiling_8mb()));
  std::cout << "Cache: " << calc.machine().llc.describe()
            << ", FIT = " << calc.machine().memory.fit() << "/Mbit\n\n";

  dvf::Table table({"n", "CG iters", "CG T (s)", "CG DVF", "PCG iters",
                    "PCG T (s)", "PCG DVF", "PCG/CG DVF ratio"});

  for (std::uint64_t n = 100; n <= 800; n += 100) {
    const RunResult cg = run_variant(n, false, calc);
    const RunResult pcg = run_variant(n, true, calc);
    table.add_row({dvf::num(static_cast<double>(n)),
                   dvf::num(static_cast<double>(cg.iterations)),
                   dvf::num(cg.seconds, 3), dvf::num(cg.dvf),
                   dvf::num(static_cast<double>(pcg.iterations)),
                   dvf::num(pcg.seconds, 3), dvf::num(pcg.dvf),
                   dvf::num(pcg.dvf / cg.dvf, 3)});
  }

  std::cout << table;
  dvf::maybe_export_csv("fig6_cg_pcg", table);
  std::cout <<
      "\nPaper observation (Fig. 6): the ratio starts above 1 (PCG slightly\n"
      "worse: bigger working set, no runtime advantage yet) and falls below\n"
      "1 as n grows (preconditioning's time savings dominate).\n";
  return 0;
}
