// Integration: end-to-end DVF studies — the Fig. 5/6/7 observations as
// assertions (at reduced sizes so the suite stays fast), and the DSL
// pipeline feeding the calculator.
#include <gtest/gtest.h>

#include <fstream>

#include "dvf/dsl/analyzer.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/dvf/ecc.hpp"
#include "dvf/kernels/cg.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/machine/cache_config.hpp"

namespace dvf {
namespace {

TEST(DvfProfiles, VmLargerStrideDominates) {
  // Fig. 5(a): A's DVF clearly exceeds B's and C's on every profiling cache.
  kernels::VectorMultiply vm({.iterations = 10000});
  ModelSpec spec = vm.model_spec();
  spec.exec_time_seconds = 1.0;
  for (const auto& cache : caches::all_profiling()) {
    const ApplicationDvf app =
        DvfCalculator(
            Machine::with_cache(cache)).try_for_model(spec).value_or_throw();
    const double a = app.find("A")->dvf;
    EXPECT_GT(a, 2.0 * app.find("B")->dvf) << cache.name();
    EXPECT_GT(a, 2.0 * app.find("C")->dvf) << cache.name();
  }
}

TEST(DvfProfiles, DvfDecreasesWithLargerCaches) {
  // More cache -> fewer main-memory accesses -> lower DVF (same T).
  kernels::VectorMultiply vm({.iterations = 10000});
  ModelSpec spec = vm.model_spec();
  spec.exec_time_seconds = 1.0;
  double prev = 1e300;
  for (const auto& cache : caches::all_profiling()) {
    const double total =
        DvfCalculator(Machine::with_cache(cache))
            .try_for_model(spec)
            .value_or_throw()
            .total;
    EXPECT_LE(total, prev * (1.0 + 1e-9)) << cache.name();
    prev = total;
  }
}

TEST(DvfProfiles, FtJumpsWhenCacheBelowWorkingSet) {
  // Fig. 5(e): the FT working set (~32 KiB) fits every profiling cache
  // except the 16 KiB one, where DVF jumps by an order of magnitude.
  auto suite = kernels::make_profiling_suite();
  for (auto& kernel : suite) {
    if (kernel->name() != "FT") {
      continue;
    }
    ModelSpec spec = kernel->model_spec();
    spec.exec_time_seconds = 1.0;
    const double small = DvfCalculator(Machine::with_cache(
                             caches::profiling_16kb(
                                 ))).try_for_model(spec).value_or_throw().total;
    const double large = DvfCalculator(Machine::with_cache(
                             caches::profiling_128kb(
                                 ))).try_for_model(spec).value_or_throw().total;
    EXPECT_GT(small, 5.0 * large);
  }
}

TEST(DvfStudies, CgPcgCrossover) {
  // Fig. 6: PCG more vulnerable at small n, less at large n. Use the model
  // with analytic times proportional to iterations * matvecs to keep the
  // test timing-noise free.
  const DvfCalculator calc(Machine::with_cache(caches::profiling_8mb()));
  const auto dvf_for = [&](std::uint64_t n, bool pre) {
    kernels::ConjugateGradient solver({.n = n, .preconditioned = pre});
    NullRecorder null;
    solver.run(null);
    ModelSpec spec = solver.model_spec();
    // Deterministic time proxy: matvecs per iteration * n^2.
    const double matvecs = pre ? 2.0 : 1.0;
    spec.exec_time_seconds = 1e-9 * matvecs *
                             static_cast<double>(solver.iterations_run()) *
                             static_cast<double>(n) * static_cast<double>(n);
    return calc.try_for_model(spec).value_or_throw().total;
  };
  EXPECT_GT(dvf_for(100, true), dvf_for(100, false));
  EXPECT_LT(dvf_for(600, true), dvf_for(600, false));
}

TEST(DvfStudies, EccSweepShapeOnRealKernel) {
  // Fig. 7 end to end on the VM kernel.
  kernels::VectorMultiply vm({.iterations = 10000});
  ModelSpec spec = vm.model_spec();
  spec.exec_time_seconds = 0.001;
  const EccTradeoffExplorer explorer(
      Machine::with_cache(caches::profiling_8mb()), spec);
  EccSweepConfig config;
  const auto points = explorer.try_sweep(config).value_or_throw();
  EXPECT_NEAR(EccTradeoffExplorer::optimal_degradation(points), 0.05, 1e-9);
  EXPECT_LT(points.back().dvf, points.front().dvf);  // ECC helps overall
}

TEST(DslToCalculator, EndToEnd) {
  const dsl::CompiledProgram program = dsl::compile(R"(
    param n = 1000;
    machine "m" {
      cache { associativity 4; sets 64; line 32; }
      memory { fit 5000; }
    }
    model "vm" {
      time 0.01;
      data A { elements n; element_size 8; }
      pattern A stream { stride 1; }
    })");
  const ApplicationDvf app =
      DvfCalculator(program.machine("m"))
          .try_for_model(program.model("vm"))
          .value_or_throw();
  ASSERT_EQ(app.structures.size(), 1u);
  EXPECT_DOUBLE_EQ(app.structures[0].n_ha, 250.0);  // 8000 B / 32 B
  EXPECT_GT(app.total, 0.0);
}

TEST(DslToCalculator, BundledModelFilesCompile) {
  // The repository's example .aspen programs must stay valid.
  for (const char* path : {"models/vm.aspen", "models/nbody.aspen",
                           "models/mg.aspen", "models/cg.aspen"}) {
    // ctest runs from the build tree; walk up until the file appears.
    std::string full = path;
    for (int up = 0; up < 4 && !std::ifstream(full).good(); ++up) {
      full = "../" + full;
    }
    if (!std::ifstream(full).good()) {
      GTEST_SKIP() << "model files not found relative to cwd";
    }
    EXPECT_NO_THROW({
      const auto program = dsl::compile_file(full);
      EXPECT_FALSE(program.models.empty()) << path;
      for (const auto& model : program.models) {
        for (const auto& machine : program.machines) {
          (void)DvfCalculator(machine).try_for_model(model).value_or_throw();
        }
      }
    }) << path;
  }
}

}  // namespace
}  // namespace dvf
